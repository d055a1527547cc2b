package castore

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sync"
)

// Mapped is a read-only view of one stored object's payload, served from
// the OS page cache via mmap where the platform supports it (with a heap
// fallback otherwise — see mmap_fallback.go). The object is pinned against
// eviction for the lifetime of the view: Close drops the pin and unmaps.
// Data must not be accessed, retained, or resliced after Close — the pages
// may be gone.
type Mapped struct {
	store     *Store
	kind, key string
	raw       []byte // full mapping (header + payload); nil when heap-backed
	data      []byte // payload view into raw (or the heap copy)
	once      sync.Once
}

// Data returns the payload view. Treat it as immutable: the bytes alias a
// shared file mapping.
func (m *Mapped) Data() []byte { return m.data }

// Size returns the payload length in bytes.
func (m *Mapped) Size() int64 { return int64(len(m.data)) }

// Close unmaps the view and releases the eviction pin. Idempotent and safe
// for concurrent use; Data is invalid afterwards.
func (m *Mapped) Close() {
	m.once.Do(func() {
		if m.raw != nil {
			munmapFile(m.raw)
			m.raw = nil
		}
		m.data = nil
		m.store.Release(m.kind, m.key)
	})
}

// OpenMapped returns a pinned, integrity-checked view of the object's
// payload without materializing it on the heap: on platforms with mmap
// support the bytes are served straight from the page cache, so repeated
// opens of hot objects (sparse lib images, reports) cost no allocation and
// no copy. The checksum is verified on every open — same contract as Get —
// and a corrupt object is removed and reported as a miss.
//
// The returned view pins the object: eviction and Delete skip pinned
// objects, so the mapping can never be unlinked-and-reused mid-response.
// Callers must Close it (typically scoped to one response or one parsed
// Library's lifetime).
//
// The heap fallback (non-unix builds and the castore_nommap build tag)
// keeps the identical contract with os.ReadFile behind it.
func (s *Store) OpenMapped(kind, key string) (*Mapped, bool) {
	id := objKey{kind, key}
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.misses++
		s.count("store.misses", 1)
		s.mu.Unlock()
		return nil, false
	}
	// Pin before dropping the lock so eviction cannot unlink the file
	// between the index lookup and the map.
	o.refs++
	s.lru.MoveToFront(o.el)
	s.mu.Unlock()

	m, err := s.openMapping(kind, key, o.size)

	s.mu.Lock()
	if err != nil {
		// Same corruption contract as Get: if the object is still the one
		// we indexed, remove it; the caller recomputes as for a miss.
		// removeLocked parks our pin in orphanRefs; the Release below
		// drains it.
		if cur, present := s.objects[id]; present && cur == o {
			s.removeLocked(cur)
			s.corrupt++
			s.count("store.corrupt", 1)
		}
		s.misses++
		s.count("store.misses", 1)
		s.mu.Unlock()
		s.Release(kind, key)
		return nil, false
	}
	s.hits++
	s.count("store.hits", 1)
	s.mu.Unlock()
	return m, true
}

// openMapping maps (or, on the fallback path, reads) the object file and
// verifies its integrity header and checksum against the indexed size, as
// Get does: a header and payload that agree with each other but not with
// the index would skew byte accounting and eviction. The caller holds a
// pin.
func (s *Store) openMapping(kind, key string, size int64) (*Mapped, error) {
	path := s.objectPath(kind, key)
	var raw []byte
	var heap bool
	if mmapSupported {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		if st.Size() < headerSize {
			f.Close()
			return nil, fmt.Errorf("castore: truncated object")
		}
		raw, err = mmapFile(f, int(st.Size()))
		f.Close() // the mapping outlives the descriptor
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		raw, err = os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		heap = true
	}
	fail := func(err error) (*Mapped, error) {
		if !heap {
			munmapFile(raw)
		}
		return nil, err
	}
	hdr, err := parseHeader(raw)
	if err != nil {
		return fail(err)
	}
	payload := raw[headerSize:]
	if int64(len(payload)) != hdr.length || hdr.length != size {
		return fail(fmt.Errorf("castore: truncated object"))
	}
	if sha256.Sum256(payload) != hdr.sum {
		return fail(fmt.Errorf("castore: checksum mismatch"))
	}
	m := &Mapped{store: s, kind: kind, key: key, data: payload}
	if !heap {
		m.raw = raw
	}
	return m, nil
}
