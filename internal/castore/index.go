package castore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
)

// The index: what Close knew about the store, so the next Open need not
// read the segments to learn it. It lists every segment with its length,
// then every object, oldest first, with the segment and offset of its
// entry, and ends with its own SHA-256:
//
//	magic   u32  ("NCX1")
//	version u16
//	flags   u16  (reserved, zero)
//	count   uvarint
//	count × (segment ID: uvarint; length: uvarint)
//	count   uvarint
//	count × (kind: uvarint length, bytes; key: same; size, segment ID,
//	         offset: uvarint each)
//	sum     [32] SHA-256 of everything before it
//
// Open trusts the index only when the segment files on disk are exactly
// the indexed ones at their indexed lengths; anything else (no index, a
// torn or bit-flipped one, one of the older version, a segment cut short,
// grown or added) falls back to reading the segments. The file exists only
// while it describes the store: the first change after Open removes it, so
// a process that dies before Close leaves no index to mislead the next
// Open. An offset or size the index got wrong anyway is caught where it is
// used: Get checks the entry's name, its header's length and its payload's
// checksum — a lying index costs a recompute, never wrong bytes (Bitcask's
// hint files, Sheehy & Smith 2010, make the same bargain).
const (
	indexMagic   uint32 = 0x3158434e // "NCX1" little-endian
	indexVersion uint16 = 2
	indexName           = ".index" // a leading dot: never a segment
)

var errBadIndex = errors.New("castore: bad index")

func (s *Store) indexPath() string { return filepath.Join(s.dir, indexName) }

// loadIndex rebuilds the in-memory index from the index file and reports
// whether it describes the open segments. On false the caller discards
// what was loaded and scans.
func (s *Store) loadIndex() bool {
	raw, err := os.ReadFile(s.indexPath())
	return err == nil && s.decodeIndex(raw) == nil
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
	nsegs, ok := next()
	if !ok || nsegs != uint64(len(s.segs)) {
		return errBadIndex
	}
	seen := make(map[uint64]bool, nsegs)
	for i := uint64(0); i < nsegs; i++ {
		id, ok1 := next()
		size, ok2 := next()
		if seg := s.segs[int(id)]; !ok1 || !ok2 || id > 1<<31 || seen[id] || seg == nil || uint64(seg.size) != size {
			return errBadIndex // a segment the index missed, or one changed since
		}
		seen[id] = true
	}
	count, ok := next()
	// Each entry takes at least five bytes, so a hostile count cannot
	// provision a huge slab.
	if !ok || count > uint64(len(b)-off)/5 {
		return errBadIndex
	}
	slab := make([]object, count)
	for i := range slab {
		kind, ok1 := name()
		key, ok2 := name()
		size, ok3 := next()
		id, ok4 := next()
		at, ok5 := next()
		o := &slab[i]
		o.id, o.size, o.off = objKey{kind, key}, int64(size), int64(at)
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 || size > 1<<62 || at > 1<<62 || id > 1<<31 {
			return errBadIndex
		}
		if o.seg = s.segs[int(id)]; o.seg == nil {
			return errBadIndex
		}
		if _, dup := s.objects[o.id]; dup {
			return errBadIndex
		}
		s.linkLocked(o)
	}
	if off != len(b) {
		return errBadIndex
	}
	return nil
}

// writeIndexLocked writes the index of the current store, oldest object
// first, through a temporary file and a rename. It is not fsynced: a torn
// index fails its checksum, and a failed write leaves none, so either way
// the next Open scans. Callers hold s.mu.
func (s *Store) writeIndexLocked() {
	buf := make([]byte, 8, 64+len(s.objects)*96)
	le := binary.LittleEndian
	le.PutUint32(buf, indexMagic)
	le.PutUint16(buf[4:], indexVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.segs)))
	for id, seg := range s.segs {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(seg.size))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.objects)))
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		o := el.Value.(*object)
		buf = binary.AppendUvarint(buf, uint64(len(o.id.kind)))
		buf = append(buf, o.id.kind...)
		buf = binary.AppendUvarint(buf, uint64(len(o.id.key)))
		buf = append(buf, o.id.key...)
		buf = binary.AppendUvarint(buf, uint64(o.size))
		buf = binary.AppendUvarint(buf, uint64(o.seg.id))
		buf = binary.AppendUvarint(buf, uint64(o.off))
	}
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	tmp := s.indexPath() + ".tmp"
	if os.WriteFile(tmp, buf, 0o644) != nil || os.Rename(tmp, s.indexPath()) != nil {
		os.Remove(tmp)
		return
	}
	s.indexFresh = true
}

// changedLocked records that the store no longer matches the index file,
// removing the file the first time. Callers hold s.mu.
func (s *Store) changedLocked() {
	if s.indexFresh {
		s.indexFresh = false
		os.Remove(s.indexPath())
	}
}
