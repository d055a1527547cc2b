package castore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// segmentBytes is where a segment stops taking appends: the next entry
// opens a new segment. An entry larger than a segment gets one of its own.
const segmentBytes = 4 << 20

// A segment is one append-only file of entries, <dir>/NNNNNNNN.seg; a
// higher ID was created later.
type segment struct {
	id     int
	f      *os.File
	size   int64 // bytes appended; the next entry starts here
	synced int64 // bytes the last fsync covered
	live   int64 // bytes of the entries the index points at
	// reclaiming marks a segment whose live entries are being copied
	// forward before it is unlinked.
	reclaiming bool
	// rw is held shared across every read or fsync of f, and exclusively
	// to close it, so a reclaimed segment is never closed under a reader.
	rw sync.RWMutex
}

func (s *Store) segmentPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%08d.seg", id))
}

// segmentID parses a segment file name.
func segmentID(name string) (int, bool) {
	digits, ok := strings.CutSuffix(name, ".seg")
	if !ok || len(digits) != 8 {
		return 0, false
	}
	id, err := strconv.Atoi(digits)
	return id, err == nil && id > 0
}

// scan indexes one segment's entries in order, reading names and headers
// and skipping payloads; a later entry of a key replaces an earlier one.
// The segment is cut at the first entry that is not whole — a torn append,
// or bytes that are not an entry — so the next append starts on an entry
// boundary and what was cut is never served. Callers hold no lock: Open
// has not shared the store yet.
func (s *Store) scan(seg *segment) error {
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, 0, seg.size), 64<<10)
	var off int64
	var buf []byte
	for off < seg.size {
		id, hdr, b, err := readHead(r, buf)
		buf = b
		if err != nil || !validName(id.kind) || !validName(id.key) || hdr.length > seg.size-off ||
			off+entryLen(id, hdr.length) > seg.size {
			break
		}
		if _, err := r.Discard(int(hdr.length)); err != nil {
			break
		}
		s.linkLocked(&object{id: id, size: hdr.length, seg: seg, off: off})
		off += entryLen(id, hdr.length)
	}
	if off < seg.size {
		if err := seg.f.Truncate(off); err != nil {
			return fmt.Errorf("castore: cut segment %d: %w", seg.id, err)
		}
		seg.size = off
		s.corrupt++
	}
	return nil
}

// appendLocked writes one entry, given in parts, at the end of the active
// segment, opening a new segment first when the entry does not fit. A
// failed write leaves the end where it was, so the next append overwrites
// what it left. Callers hold s.mu.
func (s *Store) appendLocked(entry ...[]byte) (*segment, int64, error) {
	var n int64
	for _, p := range entry {
		n += int64(len(p))
	}
	seg := s.active
	if seg == nil || seg.size > 0 && seg.size+n > segmentBytes {
		f, err := os.OpenFile(s.segmentPath(s.nextSeg), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, 0, err
		}
		seg = &segment{id: s.nextSeg, f: f}
		s.nextSeg++
		s.segs[seg.id] = seg
		s.active = seg
		s.dirDirty, s.reclaimDue = true, true
		s.changedLocked()
	}
	off := seg.size
	for _, p := range entry {
		if _, err := seg.f.WriteAt(p, seg.size); err != nil {
			seg.size = off
			return nil, 0, err
		}
		seg.size += int64(len(p))
	}
	return seg, off, nil
}

// reclaimableLocked marks and returns the sealed segments whose live
// entries fill half of them or less. Callers hold s.mu.
func (s *Store) reclaimableLocked() []*segment {
	if !s.reclaimDue {
		return nil
	}
	s.reclaimDue = false
	var out []*segment
	for _, seg := range s.segs {
		if seg != s.active && !seg.reclaiming && seg.live*2 <= seg.size {
			seg.reclaiming = true
			out = append(out, seg)
		}
	}
	return out
}

// reclaim copies a segment's live entries, pinned ones included, to the
// active segment, syncs the copies and only then unlinks the segment: a
// crash at any point leaves each live object at least one durable copy,
// and a scan that finds both takes the later one. An entry that cannot be
// read is removed as corrupt. A failed append leaves the segment to a
// later attempt; a failed flush, to the next Open.
func (s *Store) reclaim(seg *segment) {
	type move struct {
		o     *object
		off   int64
		entry []byte
	}
	var moves []move
	s.mu.Lock()
	for _, o := range s.objects {
		if o.seg == seg {
			moves = append(moves, move{o: o, off: o.off, entry: make([]byte, 0, entryLen(o.id, o.size))})
		}
	}
	s.mu.Unlock()
	// Only reclaim closes a segment, and nothing appends to a sealed one,
	// so its entries read without a lock.
	for i := range moves {
		m := &moves[i]
		if _, err := seg.f.ReadAt(m.entry[:cap(m.entry)], m.off); err == nil {
			m.entry = m.entry[:cap(m.entry)]
		}
	}
	copied := map[*segment]int64{} // the end of the copies in each segment
	s.mu.Lock()
	for _, m := range moves {
		if s.objects[m.o.id] != m.o || m.o.seg != seg || m.o.off != m.off {
			continue // removed or replaced meanwhile
		}
		if len(m.entry) == 0 {
			s.badLocked(m.o, seg, m.off)
			continue
		}
		dst, off, err := s.appendLocked(m.entry)
		if err != nil {
			break
		}
		seg.live -= int64(len(m.entry))
		dst.live += int64(len(m.entry))
		m.o.seg, m.o.off = dst, off
		copied[dst] = dst.size
		s.changedLocked()
	}
	s.mu.Unlock()
	if len(copied) > 0 {
		s.SyncDirs()
	}
	s.mu.Lock()
	if seg.live > 0 {
		seg.reclaiming = false // an append failed; try again later
		s.mu.Unlock()
		return
	}
	for dst, end := range copied {
		if dst.synced < end {
			// The copies are not durable: keep the segment, and leave it
			// marked so no later reclaim unlinks it without copies to flush.
			// The next Open reads both copies and reclaims it then.
			s.mu.Unlock()
			return
		}
	}
	delete(s.segs, seg.id)
	s.dirDirty = true
	s.changedLocked()
	s.mu.Unlock()
	seg.rw.Lock()
	seg.f.Close()
	os.Remove(s.segmentPath(seg.id))
	seg.rw.Unlock()
}

// SyncDirs flushes every segment appended to since its last flush, then
// the directory when a segment file was created or removed — the
// group-commit barrier. Call it at durability commit points: after a batch
// of Puts whose visibility a later write will assert (a job manifest
// referencing freshly spilled objects), and before Close returns. Every
// dirty segment is flushed, not only the one taking appends, so a manifest
// appended after SyncDirs never reaches the disk ahead of an entry it
// names in an older segment. A flush that fails leaves its segment due for
// the next SyncDirs, and is not reported: a commit point cannot do better
// than try, and a lost flush costs a recompute.
func (s *Store) SyncDirs() {
	// syncMu is held across the snapshot and the flushes, so a commit
	// point either waits out a sweep in flight or flushes its segments
	// itself; it never returns while an earlier sweep is outstanding.
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	type due struct {
		seg  *segment
		size int64
	}
	var todo []due
	s.mu.Lock()
	for _, seg := range s.segs {
		if seg.synced < seg.size {
			todo = append(todo, due{seg, seg.size})
		}
	}
	dir := s.dirDirty
	s.dirDirty = false
	s.mu.Unlock()
	for _, d := range todo {
		d.seg.rw.RLock()
		err := d.seg.f.Sync()
		d.seg.rw.RUnlock()
		if err == nil {
			s.mu.Lock()
			d.seg.synced = max(d.seg.synced, d.size)
			s.mu.Unlock()
		}
	}
	if dir {
		if d, err := os.Open(s.dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
}
