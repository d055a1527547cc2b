package castore

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"negativaml/internal/bufpool"
	"negativaml/internal/metrics"
)

// Object file layout: a fixed header followed by the payload.
//
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
	// BeforeRename, when non-nil, runs after the temp file is written and
	// fsynced but before the atomic rename — the crash-injection point for
	// consistency tests. Returning an error aborts the Put, leaving the
	// temp file behind exactly as a crash would.
	BeforeRename func(kind, key string) error
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
}

// Store is a disk-backed content-addressed object store. All methods are
// safe for concurrent use within one process; across processes the data
// dir is exclusive — Open takes an advisory lock and fails if another live
// process holds the directory (two stores over one tree would fight over
// tmp cleanup, eviction, and byte accounting).
type Store struct {
	dir string
	opt Options
	// lockf holds the advisory data-dir lock for the store's lifetime.
	lockf *os.File

	mu      sync.Mutex
	objects map[objKey]*object
	lru     list.List // front = most recently used
	bytes   int64
	// madeDirs remembers the kind directories already created, one entry
	// per kind, so the Put hot path skips MkdirAll's per-component mkdir
	// syscalls after a kind's first object. Guarded by mu.
	madeDirs map[string]struct{}
	// dirtyFiles and dirtyDirs collect the object files and directories
	// whose durability fsyncs Put deferred — files for their data, dirs
	// for the publishing renames. SyncDirs group-commits both sets in one
	// overlapped sweep (data before directory entries) instead of Put
	// paying two blocking fsyncs per object. Guarded by mu.
	dirtyFiles map[string]struct{}
	dirtyDirs  map[string]struct{}
	// syncMu serializes the fsync sweeps, held across the dirty-set
	// snapshot and the flushes: a background sweep (maybeBackgroundSync)
	// may be mid-flight when a commit point calls SyncDirs, and the
	// barrier must not return until that sweep's files are durable too —
	// a manifest may reference them. Ordered before mu; never acquire it
	// while holding mu.
	syncMu sync.Mutex
	// bgSyncing gates at most one background sweep at a time.
	bgSyncing atomic.Bool
	// orphanRefs holds the reference counts of objects that were removed
	// while retained (corruption forces removal regardless of pins). The
	// holders' eventual Releases drain this map instead of touching a
	// later re-Put object under the same key — a stale release must never
	// strip another owner's pin.
	orphanRefs map[objKey]int
	// indexFresh reports that the index file on disk describes the
	// current object set (index.go). Guarded by mu.
	indexFresh bool

	hits, misses, puts, evictions, corrupt int64
}

// Open opens (creating if needed) a store rooted at dir. Leftover temp
// files from interrupted writes are removed, and the in-memory index is
// rebuilt. When the index file Close wrote names exactly the objects the
// kind directories list, sizes and recency come from it and no object is
// opened (index.go). Otherwise Open scans: it opens each object once, with
// recency seeded from file modification times, deletes structurally
// invalid files (not a regular file, bad magic or version, truncated
// header, size mismatch) and moves objects of the older kind/xx/key layout
// to kind/key. Either way checksum validation is deferred to Get and
// Verify.
func Open(dir string, opt Options) (*Store, error) {
	s := &Store{dir: dir, opt: opt, objects: map[objKey]*object{}, orphanRefs: map[objKey]int{}, madeDirs: map[string]struct{}{}, dirtyFiles: map[string]struct{}{}, dirtyDirs: map[string]struct{}{}}
	if err := os.MkdirAll(s.tmpDir(), 0o755); err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	// Exclusive data-dir lock: a second opener (another process, or a
	// second store in this one) would clear this store's in-flight temp
	// files and run its own eviction against a divergent index. The lock
	// is advisory and released automatically if the process dies.
	lockf, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("castore: %w", err)
	}
	if err := flockExclusive(lockf); err != nil {
		lockf.Close()
		return nil, fmt.Errorf("castore: data dir %s is in use by another store: %w", dir, err)
	}
	s.lockf = lockf
	// Clear interrupted writes: anything in tmp/ never reached its final
	// name, so it is by definition incomplete.
	tmps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		s.unlock()
		return nil, fmt.Errorf("castore: %w", err)
	}
	for _, e := range tmps {
		os.Remove(filepath.Join(s.tmpDir(), e.Name()))
	}
	if s.loadIndex() {
		s.indexFresh = true
	} else {
		s.objects, s.lru, s.bytes = map[objKey]*object{}, list.List{}, 0
		os.Remove(s.indexPath())
		if err := s.scan(); err != nil {
			s.unlock()
			return nil, err
		}
	}
	if s.opt.Counters != nil {
		s.opt.Counters.Add("store.bytes", s.bytes)
	}
	return s, nil
}

// Close flushes every fsync Put deferred (SyncDirs), writes the index file
// when the object set changed since Open loaded it, then releases the
// data-dir lock so another store may open the directory. Idempotent; the
// store must not be used after Close.
func (s *Store) Close() {
	s.SyncDirs()
	s.mu.Lock()
	if s.lockf != nil && !s.indexFresh {
		s.writeIndexLocked()
	}
	s.mu.Unlock()
	s.unlock()
}

// unlock releases the data-dir lock.
func (s *Store) unlock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lockf != nil {
		funlock(s.lockf)
		s.lockf.Close()
		s.lockf = nil
	}
}

// scan lists each kind directory once and rebuilds the in-memory index
// ordered by modification time (oldest = least recently used). Each object
// is opened once: its size and mtime come from that descriptor, and so
// does its header.
func (s *Store) scan() error {
	type found struct {
		id    objKey
		size  int64
		mtime int64
	}
	var all []found
	kinds, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("castore: index: %w", err)
	}
	hdrBuf := make([]byte, headerSize)
	for _, k := range kinds {
		kind := k.Name()
		if !k.IsDir() || kind == "tmp" || !validName(kind) {
			continue // the lock file and strays are not kinds
		}
		kdir := filepath.Join(s.dir, kind)
		d, err := os.Open(kdir)
		if err != nil {
			return fmt.Errorf("castore: index: %w", err)
		}
		keys, err := d.Readdirnames(-1)
		d.Close()
		if err != nil {
			return fmt.Errorf("castore: index: %w", err)
		}
		for i := 0; i < len(keys); i++ {
			key := keys[i]
			if !validName(key) {
				continue // strays are not objects
			}
			path := filepath.Join(kdir, key)
			f, err := os.Open(path)
			var info os.FileInfo
			var hdr header
			if err == nil {
				if info, err = f.Stat(); err == nil && info.Mode().IsRegular() {
					if _, err = io.ReadFull(f, hdrBuf); err == nil {
						hdr, err = parseHeader(hdrBuf)
					}
				}
				f.Close()
			}
			if err == nil && info.IsDir() {
				// A shard of the older kind/xx/key layout: move its
				// objects up to kind/key, where this loop checks them
				// like any other. A rename is atomic, so a move cut
				// short finishes at the next Open.
				old, _ := os.ReadDir(path)
				for _, e := range old {
					if validName(e.Name()) && os.Rename(filepath.Join(path, e.Name()), filepath.Join(kdir, e.Name())) == nil {
						keys = append(keys, e.Name())
					}
				}
				os.Remove(path)
				continue
			}
			if err != nil || !info.Mode().IsRegular() || hdr.length != info.Size()-headerSize {
				// Structurally broken: remove now so the index never lies
				// about what a Get can serve.
				os.Remove(path)
				s.corrupt++
				s.count("store.corrupt", 1)
				continue
			}
			all = append(all, found{id: objKey{kind, key}, size: hdr.length, mtime: info.ModTime().UnixNano()})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	for _, f := range all {
		if _, dup := s.objects[f.id]; dup {
			continue // a shard's copy moved over an object listed before it
		}
		o := &object{id: f.id, size: f.size}
		o.el = s.lru.PushFront(o)
		s.objects[f.id] = o
		s.bytes += f.size
	}
	return nil
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

func makeHeader(payload []byte) []byte {
	le := binary.LittleEndian
	buf := make([]byte, headerSize)
	le.PutUint32(buf[0:], objectMagic)
	le.PutUint16(buf[4:], objectVersion)
	le.PutUint64(buf[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:48], sum[:])
	return buf
}

func (s *Store) tmpDir() string { return filepath.Join(s.dir, "tmp") }

// validName restricts kinds and keys to path-safe characters so (kind, key)
// maps to a filename without escapes.
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

// objectPath is where (kind, key) lives: one flat directory per kind, so
// Open lists a handful of directories however many objects the store
// holds (doc.go has the measurements).
func (s *Store) objectPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key)
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

// Has reports whether the object is present (without touching recency).
func (s *Store) Has(kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[objKey{kind, key}]
	return ok
}

// Put stores an object via temp write + atomic rename, its header
// carrying the payload's SHA-256. Re-putting an existing (kind, key) is a
// no-op: a key names one payload, a name the caller derives from what
// produced it (a stage hash, a job ID). The expensive part (staging the
// temp file) runs outside the store lock, so concurrent Puts and Gets
// proceed in parallel; only the publishing rename and the index update are
// serialized. Both fsyncs that harden the object against power loss — the
// data flush and the directory-entry flush — are deferred to the next
// SyncDirs (or Close): between commit points a power cut can lose or tear
// a recently put object, but SyncDirs flushes data before directory
// entries, so once a commit point returns every published object is
// complete and durable. Callers that publish a reference to the object
// (a manifest) call SyncDirs first, which is what keeps a torn object
// unreachable: no manifest ever points at bytes that were not flushed.
// A process crash (as opposed to power loss) tears nothing — the rename
// is atomic and the page cache survives the process.
func (s *Store) Put(kind, key string, payload []byte) error {
	if !validName(kind) || !validName(key) {
		return fmt.Errorf("castore: invalid object name %s/%s", kind, key)
	}
	id := objKey{kind, key}
	s.mu.Lock()
	if o, ok := s.objects[id]; ok {
		s.lru.MoveToFront(o.el)
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()

	final := s.objectPath(kind, key)
	if err := s.ensureDir(filepath.Dir(final)); err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	tmp, err := os.CreateTemp(s.tmpDir(), key+".*")
	if err != nil {
		return fmt.Errorf("castore: %w", err)
	}
	// Header+payload into the temp file, then a single atomic rename
	// publishes the object. No fsync here — the data flush rides the next
	// SyncDirs commit point, where it overlaps with every other deferred
	// flush instead of stalling each Put individually.
	werr := func() error {
		if _, err := tmp.Write(makeHeader(payload)); err != nil {
			return err
		}
		_, err := tmp.Write(payload)
		return err
	}()
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("castore: put %s/%s: %w", kind, key, werr)
	}
	return s.publishTemp(kind, key, tmp.Name(), int64(len(payload)))
}

// publishTemp promotes a fully staged temp file into a published object:
// the crash-injection hook, the duplicate check, the atomic rename, and
// the index/accounting update. It consumes the temp file — renamed on
// success, removed when a concurrent writer already published the same
// (content-addressed, so identical) object or the rename fails, and
// deliberately left behind when the BeforeRename hook aborts: that is the
// crash the hook simulates, and Open sweeps the tmp dir at boot. Shared
// by Put (staging from memory) and Import (staging from a peer stream).
func (s *Store) publishTemp(kind, key, tmpName string, size int64) error {
	id := objKey{kind, key}
	final := s.objectPath(kind, key)
	if s.opt.BeforeRename != nil {
		// Crash injection: abort with the staged temp file left behind,
		// exactly the state a kill between staging and rename produces.
		if err := s.opt.BeforeRename(kind, key); err != nil {
			return fmt.Errorf("castore: put %s/%s: %w", kind, key, err)
		}
	}
	s.mu.Lock()
	if o, ok := s.objects[id]; ok {
		// A concurrent writer published the same object while we staged
		// ours; identical content, so drop the duplicate temp file.
		s.lru.MoveToFront(o.el)
		s.mu.Unlock()
		os.Remove(tmpName)
		return nil
	}
	if err := os.Rename(tmpName, final); err != nil {
		s.mu.Unlock()
		os.Remove(tmpName)
		return fmt.Errorf("castore: put %s/%s: %w", kind, key, err)
	}
	o := &object{id: id, size: size}
	o.el = s.lru.PushFront(o)
	s.objects[id] = o
	s.addBytes(o.size)
	s.changedLocked()
	s.puts++
	s.count("store.puts", 1)
	// Neither fsync orders against anything a reader sees, so both are
	// deferred into the dirty sets and group-committed by the next
	// SyncDirs — a burst of Puts pays one overlapped flush sweep, not two
	// blocking fsyncs per object.
	s.dirtyFiles[final] = struct{}{}
	s.dirtyDirs[filepath.Dir(final)] = struct{}{}
	dirty := len(s.dirtyFiles) + len(s.dirtyDirs)
	s.evictOverLocked()
	s.mu.Unlock()
	if dirty >= backgroundSyncThreshold {
		s.maybeBackgroundSync()
	}
	return nil
}

// backgroundSyncThreshold is the dirty-set size past which a Put kicks an
// opportunistic background group-commit, so durability I/O overlaps the
// batch that is still producing objects instead of accumulating into the
// terminal SyncDirs sweep on the job's critical path.
const backgroundSyncThreshold = 24

// maybeBackgroundSync starts one asynchronous group-commit sweep unless
// one is already running. Strictly an advance of work SyncDirs would do:
// syncMu is held from before the dirty snapshot until the sweep finishes,
// so a concurrent commit-point SyncDirs either waits out the background
// sweep or snapshots the files itself — it never returns while a
// snapshotted file's fsync is outstanding.
func (s *Store) maybeBackgroundSync() {
	if !s.bgSyncing.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.bgSyncing.Store(false)
		s.SyncDirs()
	}()
}

// SyncDirs flushes every fsync Put deferred — the group-commit barrier.
// Call it at durability commit points: after a batch of Puts whose
// visibility a later write will assert (a job manifest referencing freshly
// spilled objects), and before Close returns. Object data is flushed
// before directory entries, so a completed SyncDirs never leaves a durable
// rename pointing at undurable bytes. Failures are ignored for the same
// reason syncAll's are.
func (s *Store) SyncDirs() {
	// syncMu is held across snapshot AND sweep, acquired before mu. If the
	// snapshot were taken first, a background sweep could empty the dirty
	// sets, get descheduled before reaching syncMu, and let a concurrent
	// commit-point SyncDirs snapshot nothing, win syncMu, and return while
	// the sweep's fsyncs had not even started — a caller would publish a
	// manifest referencing undurable objects. Taken in this order, a commit
	// barrier either blocks behind the in-flight sweep or still sees the
	// files in its own snapshot; both are safe.
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	files := make([]string, 0, len(s.dirtyFiles))
	for f := range s.dirtyFiles {
		files = append(files, f)
	}
	clear(s.dirtyFiles)
	dirs := make([]string, 0, len(s.dirtyDirs))
	for d := range s.dirtyDirs {
		dirs = append(dirs, d)
	}
	clear(s.dirtyDirs)
	s.mu.Unlock()
	if len(files)+len(dirs) == 0 {
		return
	}
	// A large dirty set is cheaper to flush wholesale than path by path:
	// one sync(2) is a single journal commit covering every deferred file
	// and rename, where per-path fsync pays a commit each. Small sets stay
	// per-path to avoid flushing unrelated system-wide dirty pages.
	if len(files)+len(dirs) >= bulkSyncThreshold && bulkSync() {
		return
	}
	syncAll(files)
	syncAll(dirs)
}

// bulkSyncThreshold is the deferred-path count at which SyncDirs prefers
// one whole-system sync over per-path fsyncs.
const bulkSyncThreshold = 16

// ensureDir creates a kind directory once per store lifetime. An
// externally deleted directory surfaces as the subsequent rename's error,
// the same failure mode MkdirAll-per-Put had for a deletion racing the
// rename itself.
func (s *Store) ensureDir(dir string) error {
	s.mu.Lock()
	_, ok := s.madeDirs[dir]
	s.mu.Unlock()
	if ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	s.madeDirs[dir] = struct{}{}
	s.mu.Unlock()
	return nil
}

// syncAll fsyncs the paths with bounded parallelism: the flushes are
// independent disk waits, so a commit point pays roughly the slowest one,
// not the sum. Failures are ignored — a path may have been evicted since
// it went dirty, and not every filesystem supports directory fsync; the
// manifest-after-SyncDirs ordering bounds what a lost flush can cost.
func syncAll(paths []string) {
	if len(paths) == 0 {
		return
	}
	// Concurrent fsyncs of distinct files mostly coalesce into shared
	// journal commits, so wide fan-out turns ~N commits into a handful.
	workers := 32
	if len(paths) < workers {
		workers = len(paths)
	}
	ch := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range ch {
				f, err := os.Open(p)
				if err != nil {
					continue
				}
				f.Sync()
				f.Close()
			}
		}()
	}
	for _, p := range paths {
		ch <- p
	}
	close(ch)
	wg.Wait()
}

// Get returns the object's payload, verifying its checksum and refreshing
// its recency. A corrupt object is deleted and reported as a miss — the
// caller recomputes, exactly as for an absent object. The read and the
// checksum run outside the store lock so concurrent Gets of large objects
// do not serialize.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	id := objKey{kind, key}
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.misses++
		s.count("store.misses", 1)
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	payload, err := readObject(s.objectPath(kind, key), o.size)

	s.mu.Lock()
	defer s.mu.Unlock()
	cur, present := s.objects[id]
	if err != nil {
		// If the same object is still indexed, the read failure means
		// corruption; if it vanished (evicted under us) this is a plain
		// miss.
		if present && cur == o {
			s.corruptLocked(cur)
		}
		s.misses++
		s.count("store.misses", 1)
		return nil, false
	}
	if present {
		s.lru.MoveToFront(cur.el)
	}
	s.hits++
	s.count("store.hits", 1)
	return payload, true
}

// verifyObject integrity-checks one object file without materializing it:
// the payload streams through the checksum in pooled chunks, so a Verify
// scan's memory stays bounded regardless of object size.
func verifyObject(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdrBuf [headerSize]byte
	if _, err := io.ReadFull(f, hdrBuf[:]); err != nil {
		return err
	}
	hdr, err := parseHeader(hdrBuf[:])
	if err != nil {
		return err
	}
	h := sha256.New()
	buf := bufpool.Get(64 << 10)
	n, err := io.CopyBuffer(h, f, buf)
	bufpool.Put(buf)
	if err != nil {
		return err
	}
	if n != hdr.length {
		return fmt.Errorf("castore: truncated object")
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if sum != hdr.sum {
		return fmt.Errorf("castore: checksum mismatch")
	}
	return nil
}

// readObject reads and integrity-checks one object file whose payload the
// index holds as size bytes. The buffer is sized from the index, one byte
// over, so a whole object arrives in one read with no stat and no second
// read to find the end; a file longer than indexed fills the spare byte
// and is corrupt like a short one, and so is a header that disagrees with
// the indexed size.
func readObject(path string, size int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	data := make([]byte, headerSize+size+1)
	n, err := io.ReadAtLeast(f, data, headerSize+int(size))
	f.Close()
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, err
	}
	data = data[:n]
	hdr, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	payload := data[headerSize:]
	if int64(len(payload)) != hdr.length || hdr.length != size {
		return nil, fmt.Errorf("castore: truncated object")
	}
	if sha256.Sum256(payload) != hdr.sum {
		return nil, fmt.Errorf("castore: checksum mismatch")
	}
	return payload, nil
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
// deleted eagerly — the byte budget decides). A release of an object that
// was force-removed while retained (corruption) drains the orphaned count
// rather than the refs of any object later re-stored under the same key.
func (s *Store) Release(kind, key string) {
	id := objKey{kind, key}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.orphanRefs[id]; n > 0 {
		if n == 1 {
			delete(s.orphanRefs, id)
		} else {
			s.orphanRefs[id] = n - 1
		}
		return
	}
	if o, ok := s.objects[id]; ok && o.refs > 0 {
		o.refs--
	}
	s.evictOverLocked()
}

// Delete removes an object regardless of recency (pinned objects are left
// alone).
func (s *Store) Delete(kind, key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o, ok := s.objects[objKey{kind, key}]; ok && o.refs == 0 {
		s.removeLocked(o)
	}
}

// corruptLocked removes a corrupt object, pins or no pins, and counts it.
// Callers hold s.mu.
func (s *Store) corruptLocked(o *object) {
	s.removeLocked(o)
	s.corrupt++
	s.count("store.corrupt", 1)
}

// removeLocked drops the object from the index and disk. An object removed
// while retained (only corruption forces that) parks its refs as orphans so
// the holders' releases stay balanced. Callers hold s.mu.
func (s *Store) removeLocked(o *object) {
	s.lru.Remove(o.el)
	delete(s.objects, o.id)
	s.addBytes(-o.size)
	s.changedLocked()
	if o.refs > 0 {
		s.orphanRefs[o.id] += o.refs
	}
	os.Remove(s.objectPath(o.id.kind, o.id.key))
}

// evictOverLocked deletes least-recently-used unreferenced objects until
// the byte budget fits. The most-recently-used object is never evicted —
// otherwise a single payload larger than the budget would be dropped
// immediately after its own successful Put, silently defeating durability;
// instead one oversized object overshoots the budget until something
// replaces it (mirroring dserve's ResultCache). Callers hold s.mu.
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
		s.removeLocked(o)
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

// Verify integrity-checks every object, removing any whose checksum fails.
// After a crash, Open's tmp cleanup plus a Verify scan restore the
// invariant that every indexed object is complete and correct. Each object
// streams through the checksum in pooled chunks — a scan's memory is
// bounded by one chunk, not by the largest stored object.
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
		err := verifyObject(s.objectPath(o.id.kind, o.id.key))
		if err == nil {
			rep.OK++
			continue
		}
		s.mu.Lock()
		if cur, ok := s.objects[o.id]; ok && cur == o {
			s.corruptLocked(o)
		}
		s.mu.Unlock()
		rep.Removed++
	}
	return rep
}
