package castore

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"negativaml/internal/bufpool"
	"negativaml/internal/metrics"
)

// Entry layout: an object's name, a fixed header, then the payload. A
// segment is entries back to back, and so is a multi-object body; Export
// carries an entry without its name.
//
//	name    u16 length, then kind "/" key
//	magic   u32  ("NCS1")
//	version u16
//	flags   u16  (reserved, zero)
//	length  u64  payload length in bytes
//	sum     [32] SHA-256 of the payload
const (
	objectMagic   uint32 = 0x3153434e // "NCS1" little-endian
	objectVersion uint16 = 1
	headerSize           = 48
)

// Options configure a store.
type Options struct {
	// MaxBytes bounds the store's total payload bytes; 0 means unbounded.
	// Retained (refcounted) objects and the most-recently-used object are
	// never evicted, so the real floor is the retained working set (and a
	// single over-budget object still stores successfully).
	MaxBytes int64
	// Counters, when non-nil, mirrors store.hits / store.misses /
	// store.puts / store.evictions / store.corrupt and tracks store.bytes
	// as a gauge.
	Counters *metrics.CounterSet
	// BeforeAppend, when non-nil, runs after a Put or Import has built and
	// checked its entry and before the entry is appended to its segment —
	// the point the object becomes visible, and the crash-injection point
	// for consistency tests. It runs with no store lock held. Returning an
	// error aborts the write with nothing appended, as a crash there would.
	BeforeAppend func(kind, key string) error
}

// Stats is a point-in-time view of the store.
type Stats struct {
	Objects   int   `json:"objects"`
	Bytes     int64 `json:"bytes"`
	Retained  int   `json:"retained"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Corrupt   int64 `json:"corrupt"`
}

// VerifyReport summarizes a Verify scan.
type VerifyReport struct {
	Scanned int `json:"scanned"`
	OK      int `json:"ok"`
	Removed int `json:"removed"`
}

type objKey struct{ kind, key string }

type object struct {
	id   objKey
	size int64 // payload bytes
	refs int
	el   *list.Element
	seg  *segment
	off  int64 // where the object's entry starts in seg
}

// entryLen is the size of an entry: name, header and payload.
func entryLen(id objKey, size int64) int64 {
	return int64(2+len(id.kind)+1+len(id.key)+headerSize) + size
}

// Store is a disk-backed content-addressed object store. All methods are
// safe for concurrent use within one process; across processes the data
// dir is exclusive — Open takes an advisory lock and fails if another live
// process holds the directory (two stores appending to one segment would
// overwrite each other).
type Store struct {
	dir string
	opt Options
	// lockf holds the advisory data-dir lock for the store's lifetime.
	lockf *os.File

	mu      sync.Mutex
	objects map[objKey]*object
	lru     list.List // front = most recently used
	bytes   int64
	// segs holds every segment file by ID. Appends go to active, which is
	// nil until the first append after Open, or after a segment filled.
	segs     map[int]*segment
	active   *segment
	nextSeg  int
	dirDirty bool // a segment file was created or removed since the last SyncDirs
	// reclaimDue reports that a segment lost an entry or was sealed since
	// the last look for segments to reclaim.
	reclaimDue bool
	// syncMu serializes SyncDirs sweeps, so a commit point never returns
	// while an earlier sweep's fsyncs are outstanding. Ordered before mu;
	// never acquire it while holding mu.
	syncMu sync.Mutex
	// carried holds the pins of objects that were removed while retained
	// (a Delete, or corruption). The key's next Put adopts them, so a
	// replaced object stays pinned for its holders; a holder's Release
	// before then drains them instead.
	carried map[objKey]int
	// indexFresh reports that the index file on disk describes the
	// current object set (index.go). Guarded by mu.
	indexFresh bool

	hits, misses, puts, evictions, corrupt int64
}

// Open opens (creating if needed) a store rooted at dir and rebuilds the
// in-memory index. When the index file Close wrote names exactly the
// segment files on disk, at their lengths, objects and recency come from
// it and no segment is read (index.go). Otherwise Open reads every segment
// once, entry headers only, oldest first: the newest entry of a key wins,
// and a segment is cut at its first entry that is not whole (segment.go).
// A directory in the older one-file-per-object layout is moved into
// segments (migrate.go). Either way checksum validation is deferred to Get
// and Verify.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	// Gauges and counters are mirrored once the store is loaded.
	counters := opt.Counters
	opt.Counters = nil
	s := &Store{dir: dir, opt: opt, objects: map[objKey]*object{}, segs: map[int]*segment{}, carried: map[objKey]int{}, nextSeg: 1}
	// Exclusive data-dir lock: a second opener would append to this
	// store's segments and run its own eviction against a divergent index.
	// The lock is advisory and released automatically if the process dies.
	lockf, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	if err := flockExclusive(lockf); err != nil {
		lockf.Close()
		return nil, fmt.Errorf("castore: data dir %s is in use by another store: %w", dir, err)
	}
	s.lockf = lockf
	if err := s.load(); err != nil {
		for _, seg := range s.segs {
			seg.f.Close()
		}
		s.unlockLocked()
		return nil, err
	}
	s.opt.Counters = counters
	s.count("store.bytes", s.bytes)
	s.count("store.corrupt", s.corrupt)
	return s, nil
}

// load lists the root, opens the segments, indexes them and migrates an
// older layout.
func (s *Store) load() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	var ids []int
	var legacy []string
	for _, e := range ents {
		name := e.Name()
		if id, ok := segmentID(name); ok && e.Type().IsRegular() {
			ids = append(ids, id)
		} else if e.IsDir() && validName(name) {
			legacy = append(legacy, name)
		}
	}
	os.Remove(s.indexPath() + ".tmp") // an index publish cut short
	sort.Ints(ids)
	for _, id := range ids {
		f, err := os.OpenFile(s.segmentPath(id), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("castore: %w", err)
		}
		seg := &segment{id: id, f: f}
		s.segs[id] = seg
		if seg.size, err = f.Seek(0, io.SeekEnd); err != nil {
			return fmt.Errorf("castore: %w", err)
		}
		s.nextSeg = id + 1
	}
	if s.loadIndex() {
		s.indexFresh = true
		for _, seg := range s.segs {
			seg.synced = seg.size // Close synced what its index describes
		}
	} else {
		s.objects, s.bytes = map[objKey]*object{}, 0
		s.lru.Init()
		os.Remove(s.indexPath())
		for _, id := range ids {
			s.segs[id].live = 0
			if err := s.scan(s.segs[id]); err != nil {
				return err
			}
		}
	}
	if len(ids) > 0 {
		if last := s.segs[ids[len(ids)-1]]; last.size < segmentBytes {
			s.active = last
		}
	}
	s.reclaimDue = true
	if len(legacy) > 0 {
		return s.migrate(legacy)
	}
	return nil
}

// Close flushes every segment (SyncDirs), writes the index file when the
// object set changed since Open loaded it, closes the segments and releases
// the data-dir lock so another store may open the directory. Idempotent;
// the store must not be used after Close.
func (s *Store) Close() {
	s.SyncDirs()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lockf == nil {
		return
	}
	if !s.indexFresh {
		s.writeIndexLocked()
	}
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.unlockLocked()
}

// unlockLocked releases the data-dir lock. Callers hold s.mu.
func (s *Store) unlockLocked() {
	if s.lockf != nil {
		funlock(s.lockf)
		s.lockf.Close()
		s.lockf = nil
	}
}

type header struct {
	length int64
	sum    [sha256.Size]byte
}

func parseHeader(buf []byte) (header, error) {
	le := binary.LittleEndian
	if len(buf) < headerSize || le.Uint32(buf[0:]) != objectMagic {
		return header{}, fmt.Errorf("castore: bad object magic")
	}
	if v := le.Uint16(buf[4:]); v != objectVersion {
		return header{}, fmt.Errorf("castore: unsupported object version %d", v)
	}
	h := header{length: int64(le.Uint64(buf[8:]))}
	if h.length < 0 {
		return header{}, fmt.Errorf("castore: negative object length")
	}
	copy(h.sum[:], buf[16:48])
	return h, nil
}

// A Frame is a payload and the SHA-256 its header carries. Only this
// package makes one, so a frame's sum is always its payload's: NewFrame
// hashes the payload, and EntryReader.Frame hands out a payload it has
// checked against the sum it arrived with. PutFrame and AppendEntry write
// a frame without hashing it again, so bytes framed once are hashed once
// however many places they go.
type Frame struct {
	payload []byte
	sum     [sha256.Size]byte
}

// NewFrame hashes payload into a frame. The frame holds payload, not a
// copy: the caller must not change it afterwards.
func NewFrame(payload []byte) Frame {
	return Frame{payload: payload, sum: sha256.Sum256(payload)}
}

// Payload returns the frame's payload.
func (f Frame) Payload() []byte { return f.payload }

// appendHeader appends the frame's header to dst.
func appendHeader(dst []byte, f *Frame) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, objectMagic)
	dst = le.AppendUint16(dst, objectVersion)
	dst = le.AppendUint16(dst, 0)
	dst = le.AppendUint64(dst, uint64(len(f.payload)))
	return append(dst, f.sum[:]...)
}

// validName restricts kinds and keys to path-safe characters, so an entry
// name splits at its one '/'.
func validName(n string) bool {
	if n == "" || len(n) > 128 {
		return false
	}
	for i := 0; i < len(n); i++ {
		c := n[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
			if c == '.' && (i == 0 || n[i-1] == '.') {
				return false // no leading dot, no ".."
			}
		default:
			return false
		}
	}
	return true
}

func (s *Store) count(name string, delta int64) {
	if s.opt.Counters != nil {
		s.opt.Counters.Add(name, delta)
	}
}

// addBytes adjusts the byte total and its gauge. Callers hold s.mu.
func (s *Store) addBytes(delta int64) {
	s.bytes += delta
	s.count("store.bytes", delta)
}

func (s *Store) missLocked() {
	s.misses++
	s.count("store.misses", 1)
}

// Has reports whether the object is present (without touching recency).
func (s *Store) Has(kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[objKey{kind, key}]
	return ok
}

// Put stores an object, its header carrying the payload's SHA-256, as one
// entry appended to the active segment. Re-putting an existing (kind, key)
// is a no-op: a key names one payload, a name the caller derives from what
// produced it (a stage hash, a job ID); Delete first to replace one. The
// hash runs outside the store lock; the append and the index update are
// one critical section. The fsync is deferred to the next SyncDirs (or
// Close): between commit points a power cut can lose or tear recent
// entries, and Open cuts a torn one off. Callers that publish a reference
// to the object (a manifest) call SyncDirs first, so no manifest ever
// points at bytes that were not flushed. A process crash tears nothing:
// the page cache survives the process.
func (s *Store) Put(kind, key string, payload []byte) error {
	return s.put(kind, key, Frame{payload: payload}, false)
}

// PutFrame stores a framed object as Put does, under the sum the frame
// already holds: its payload is not hashed again.
func (s *Store) PutFrame(kind, key string, f Frame) error {
	return s.put(kind, key, f, true)
}

// put is Put and PutFrame: it hashes f's payload unless framed, and only
// once the key is known to be absent.
func (s *Store) put(kind, key string, f Frame, framed bool) error {
	if !validName(kind) || !validName(key) {
		return fmt.Errorf("castore: invalid object name %s/%s", kind, key)
	}
	id := objKey{kind, key}
	if s.touch(id) {
		return nil
	}
	if !framed {
		f = NewFrame(f.payload)
	}
	payload := f.payload
	// A small entry is written in one piece; a large payload is written
	// from the caller's slice rather than copied behind its name.
	buf := bufpool.Get(int(entryLen(id, int64(min(len(payload), largePayload)))))
	entry := appendHeader(appendEntryName(buf[:0], kind, key), &f)
	parts := [][]byte{entry, payload}
	if len(payload) < largePayload {
		parts = [][]byte{append(entry, payload...)}
	}
	err := s.publish(id, int64(len(payload)), parts...)
	bufpool.Put(buf)
	return err
}

// largePayload is the payload size from which Put writes the payload
// apart from its name and header.
const largePayload = 64 << 10

// touch refreshes a present object's recency and reports whether it is
// present.
func (s *Store) touch(id objKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if ok {
		s.lru.MoveToFront(o.el)
	}
	return ok
}

// publish appends one whole, checked entry, given in parts, and indexes
// it, unless the key is present: the one write path of Put and Import. It
// then evicts down to the budget and reclaims the segments that eviction
// left mostly dead.
func (s *Store) publish(id objKey, size int64, entry ...[]byte) error {
	if s.opt.BeforeAppend != nil {
		if err := s.opt.BeforeAppend(id.kind, id.key); err != nil {
			return fmt.Errorf("castore: put %s/%s: %w", id.kind, id.key, err)
		}
	}
	s.mu.Lock()
	if o, ok := s.objects[id]; ok {
		// A concurrent writer published the same object meanwhile.
		s.lru.MoveToFront(o.el)
		s.mu.Unlock()
		return nil
	}
	seg, off, err := s.appendLocked(entry...)
	if err != nil {
		s.mu.Unlock()
		return fmt.Errorf("castore: put %s/%s: %w", id.kind, id.key, err)
	}
	s.linkLocked(&object{id: id, size: size, seg: seg, off: off})
	s.puts++
	s.count("store.puts", 1)
	s.evictOverLocked()
	victims := s.reclaimableLocked()
	s.mu.Unlock()
	for _, seg := range victims {
		s.reclaim(seg)
	}
	return nil
}

// linkLocked indexes o as its key's newest entry, most recently used. An
// older entry of the key goes dead, and pins carried from a removed copy
// pass to o. Callers hold s.mu.
func (s *Store) linkLocked(o *object) {
	if old, ok := s.objects[o.id]; ok {
		s.unlinkLocked(old)
	}
	if n := s.carried[o.id]; n > 0 {
		o.refs += n
		delete(s.carried, o.id)
	}
	o.el = s.lru.PushFront(o)
	s.objects[o.id] = o
	o.seg.live += entryLen(o.id, o.size)
	s.addBytes(o.size)
	s.changedLocked()
}

// unlinkLocked drops the object from the index; its entry goes dead in its
// segment, and its pins are carried to the key's next Put. Callers hold
// s.mu.
func (s *Store) unlinkLocked(o *object) {
	s.lru.Remove(o.el)
	delete(s.objects, o.id)
	o.seg.live -= entryLen(o.id, o.size)
	s.addBytes(-o.size)
	if o.refs > 0 {
		s.carried[o.id] += o.refs
	}
	s.reclaimDue = true
	s.changedLocked()
}

// Get returns the object's payload, verifying its name, header and
// checksum and refreshing its recency. A corrupt object is removed and
// reported as a miss — the caller recomputes, exactly as for an absent
// object. The read runs outside the store lock.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	return s.read(objKey{kind, key}, false)
}

// read is the one read path of Get and OpenMapped; pin retains the object
// for the caller from before the read.
func (s *Store) read(id objKey, pin bool) ([]byte, bool) {
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.missLocked()
		s.mu.Unlock()
		return nil, false
	}
	if pin {
		o.refs++
	}
	s.mu.Unlock()

	payload, seg, off, err := s.readEntry(o)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.badLocked(o, seg, off)
		if pin {
			s.releaseLocked(id)
		}
		s.missLocked()
		return nil, false
	}
	if s.objects[id] == o {
		s.lru.MoveToFront(o.el)
	}
	s.hits++
	s.count("store.hits", 1)
	return payload, true
}

// readEntry reads and checks o's entry: the name must be o's, the header
// must carry o's indexed size, and the payload its sum. The segment is
// held open across the read, without s.mu; readEntry reports where it
// read, so the caller can tell a bad entry from one that moved meanwhile.
func (s *Store) readEntry(o *object) ([]byte, *segment, int64, error) {
	s.mu.Lock()
	seg, off, size := o.seg, o.off, o.size
	seg.rw.RLock()
	s.mu.Unlock()
	defer seg.rw.RUnlock()
	name := len(o.id.kind) + 1 + len(o.id.key)
	buf := make([]byte, entryLen(o.id, size))
	if _, err := seg.f.ReadAt(buf, off); err != nil {
		return nil, seg, off, err
	}
	if int(binary.LittleEndian.Uint16(buf)) != name || string(buf[2:2+len(o.id.kind)]) != o.id.kind ||
		buf[2+len(o.id.kind)] != '/' || string(buf[3+len(o.id.kind):2+name]) != o.id.key {
		return nil, seg, off, fmt.Errorf("castore: entry is not %s/%s", o.id.kind, o.id.key)
	}
	hdr, err := parseHeader(buf[2+name:])
	if err != nil {
		return nil, seg, off, err
	}
	payload := buf[2+name+headerSize:]
	if hdr.length != size {
		return nil, seg, off, fmt.Errorf("castore: entry length disagrees with the index")
	}
	if sha256.Sum256(payload) != hdr.sum {
		return nil, seg, off, fmt.Errorf("castore: checksum mismatch")
	}
	return payload, seg, off, nil
}

// badLocked removes o as corrupt if it is still indexed at the entry a
// failed read saw; an object removed or moved meanwhile is left alone.
// Callers hold s.mu.
func (s *Store) badLocked(o *object, seg *segment, off int64) bool {
	if s.objects[o.id] != o || o.seg != seg || o.off != off {
		return false
	}
	s.unlinkLocked(o)
	s.corrupt++
	s.count("store.corrupt", 1)
	return true
}

// Retain pins the object against eviction, reporting whether it exists.
// Pins are in-memory only; the owner re-establishes them on boot.
func (s *Store) Retain(kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[objKey{kind, key}]
	if !ok {
		return false
	}
	o.refs++
	return true
}

// Release drops one pin; at zero the object becomes evictable (it is not
// deleted eagerly — the byte budget decides). A pin carried from a removed
// copy that no Put has adopted yet is drained first.
func (s *Store) Release(kind, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(objKey{kind, key})
}

func (s *Store) releaseLocked(id objKey) {
	if n := s.carried[id]; n > 0 {
		if n == 1 {
			delete(s.carried, id)
		} else {
			s.carried[id] = n - 1
		}
		return
	}
	if o, ok := s.objects[id]; ok && o.refs > 0 {
		o.refs--
	}
	s.evictOverLocked()
}

// Delete removes an object. A pinned one goes too: its pins pass to the
// key's next Put, so a caller that finds a stored object unusable can
// replace it under the jobs that hold it.
func (s *Store) Delete(kind, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.objects[objKey{kind, key}]; ok {
		s.unlinkLocked(o)
	}
}

// evictOverLocked removes least-recently-used unreferenced objects until
// the byte budget fits; their segments are reclaimed once mostly dead. The
// most-recently-used object is never evicted — otherwise a single payload
// larger than the budget would be dropped immediately after its own
// successful Put; instead one oversized object overshoots the budget until
// something replaces it (mirroring dserve's ResultCache). Callers hold
// s.mu.
func (s *Store) evictOverLocked() {
	if s.opt.MaxBytes <= 0 {
		return
	}
	el := s.lru.Back()
	for s.bytes > s.opt.MaxBytes && el != nil && el != s.lru.Front() {
		o := el.Value.(*object)
		el = el.Prev()
		if o.refs > 0 {
			continue
		}
		s.unlinkLocked(o)
		s.evictions++
		s.count("store.evictions", 1)
	}
}

// Walk calls fn for every stored key of the kind, in unspecified order.
// The key set is snapshotted up front and fn runs unlocked, so fn may call
// back into the store (boot-time replay does: Get, Delete); keys added or
// removed concurrently may or may not be visited.
func (s *Store) Walk(kind string, fn func(key string, size int64) error) error {
	s.mu.Lock()
	keys := make([]*object, 0, len(s.objects))
	for id, o := range s.objects {
		if id.kind == kind {
			keys = append(keys, o)
		}
	}
	s.mu.Unlock()
	for _, o := range keys {
		if err := fn(o.id.key, o.size); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a snapshot of store effectiveness and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	retained := 0
	for _, o := range s.objects {
		if o.refs > 0 {
			retained++
		}
	}
	return Stats{
		Objects: len(s.objects), Bytes: s.bytes, Retained: retained,
		Hits: s.hits, Misses: s.misses, Puts: s.puts,
		Evictions: s.evictions, Corrupt: s.corrupt,
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Verify integrity-checks every object, removing any whose entry fails
// Get's checks. After a crash, Open's cut of torn segment tails plus a
// Verify scan restore the invariant that every indexed object is complete
// and correct.
func (s *Store) Verify() VerifyReport {
	s.mu.Lock()
	objs := make([]*object, 0, len(s.objects))
	for _, o := range s.objects {
		objs = append(objs, o)
	}
	s.mu.Unlock()

	var rep VerifyReport
	for _, o := range objs {
		rep.Scanned++
		_, seg, off, err := s.readEntry(o)
		if err == nil {
			rep.OK++
			continue
		}
		s.mu.Lock()
		if s.badLocked(o, seg, off) {
			rep.Removed++
		}
		s.mu.Unlock()
	}
	return rep
}
