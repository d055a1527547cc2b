package castore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
)

// The index: what Close knew about the store, so the next Open need not
// open every object to learn it. It lists every object, oldest first, and
// ends with its own SHA-256:
//
//	magic   u32  ("NCX1")
//	version u16
//	flags   u16  (reserved, zero)
//	count   uvarint
//	count × (kind: uvarint length, bytes; key: same; size: uvarint)
//	sum     [32] SHA-256 of everything before it
//
// Open trusts the index only when listing the kind directories names
// exactly the indexed objects; anything else (no index, a torn or
// bit-flipped one, an extra or a missing object, a leftover kind/xx/ shard
// directory) falls back to the scan. The file exists only while it
// describes the object set: the first change after Open removes it, so a
// process that dies before Close leaves no index to mislead the next Open,
// even where an object was rewritten under the same name. A size the
// index got wrong anyway is caught where it is used: Get and OpenMapped
// reject a file whose length or header disagrees with the indexed size,
// and every read checks the payload's checksum — a lying index costs a
// recompute, never wrong bytes (Bitcask's hint files, Sheehy & Smith
// 2010, make the same bargain).
const (
	indexMagic   uint32 = 0x3158434e // "NCX1" little-endian
	indexVersion uint16 = 1
	indexName           = ".index" // a leading dot: never a kind
)

var errBadIndex = errors.New("castore: bad index")

func (s *Store) indexPath() string { return filepath.Join(s.dir, indexName) }

// loadIndex rebuilds the in-memory index from the index file and reports
// whether the kind directories' listing names exactly the objects it
// holds. On false the caller discards what was loaded and scans.
func (s *Store) loadIndex() bool {
	raw, err := os.ReadFile(s.indexPath())
	if err != nil || s.decodeIndex(raw) != nil {
		return false
	}
	kinds, err := os.ReadDir(s.dir)
	if err != nil {
		return false
	}
	matched := 0
	for _, k := range kinds {
		kind := k.Name()
		if !k.IsDir() || kind == "tmp" || !validName(kind) {
			continue
		}
		d, err := os.Open(filepath.Join(s.dir, kind))
		if err != nil {
			return false
		}
		keys, err := d.Readdirnames(-1)
		d.Close()
		if err != nil {
			return false
		}
		for _, key := range keys {
			if !validName(key) {
				continue // strays are not objects
			}
			if _, ok := s.objects[objKey{kind, key}]; !ok {
				return false // an object (or a shard directory) the index missed
			}
			matched++
		}
	}
	return matched == len(s.objects)
}

// decodeIndex fills objects, lru and bytes from the index file's bytes,
// oldest first. Every kind and key is a substring of one copy of raw.
func (s *Store) decodeIndex(raw []byte) error {
	le := binary.LittleEndian
	body := len(raw) - sha256.Size
	if body < 8 || le.Uint32(raw) != indexMagic || le.Uint16(raw[4:]) != indexVersion || le.Uint16(raw[6:]) != 0 {
		return errBadIndex
	}
	if sha256.Sum256(raw[:body]) != [sha256.Size]byte(raw[body:]) {
		return errBadIndex
	}
	str := string(raw[8:body])
	b, off := raw[8:body], 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	name := func() (string, bool) {
		n, ok := next()
		if !ok || n > uint64(len(b)-off) {
			return "", false
		}
		off += int(n)
		return str[off-int(n) : off], true
	}
	count, ok := next()
	// Each entry takes at least three bytes, so a hostile count cannot
	// provision a huge slab.
	if !ok || count > uint64(len(b)-off)/3 {
		return errBadIndex
	}
	slab := make([]object, count)
	for i := range slab {
		kind, ok1 := name()
		key, ok2 := name()
		size, ok3 := next()
		if !ok1 || !ok2 || !ok3 || size > 1<<62 {
			return errBadIndex
		}
		o := &slab[i]
		o.id, o.size = objKey{kind, key}, int64(size)
		if _, dup := s.objects[o.id]; dup {
			return errBadIndex
		}
		o.el = s.lru.PushFront(o)
		s.objects[o.id] = o
		s.bytes += o.size
	}
	if off != len(b) {
		return errBadIndex
	}
	return nil
}

// writeIndexLocked writes the index of the current object set, oldest
// first, through a temp file and a rename. It is not fsynced: a torn index
// fails its checksum, and a failed write leaves none, so either way the
// next Open scans. Callers hold s.mu.
func (s *Store) writeIndexLocked() {
	n := 8 + uvarintLen(uint64(len(s.objects))) + sha256.Size
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		o := el.Value.(*object)
		n += uvarintLen(uint64(len(o.id.kind))) + len(o.id.kind) + uvarintLen(uint64(len(o.id.key))) + len(o.id.key) + uvarintLen(uint64(o.size))
	}
	buf := make([]byte, 8, n)
	le := binary.LittleEndian
	le.PutUint32(buf, indexMagic)
	le.PutUint16(buf[4:], indexVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.objects)))
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		o := el.Value.(*object)
		buf = binary.AppendUvarint(buf, uint64(len(o.id.kind)))
		buf = append(buf, o.id.kind...)
		buf = binary.AppendUvarint(buf, uint64(len(o.id.key)))
		buf = append(buf, o.id.key...)
		buf = binary.AppendUvarint(buf, uint64(o.size))
	}
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	tmp, err := os.CreateTemp(s.tmpDir(), indexName+".*")
	if err != nil {
		return
	}
	_, err = tmp.Write(buf)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.indexPath())
	}
	if err != nil {
		os.Remove(tmp.Name())
		return
	}
	s.indexFresh = true
}

// changedLocked records that the object set no longer matches the index
// file, removing the file the first time. Callers hold s.mu.
func (s *Store) changedLocked() {
	if s.indexFresh {
		s.indexFresh = false
		os.Remove(s.indexPath())
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
