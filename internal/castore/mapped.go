package castore

import "sync"

// Mapped is a read-only, pinned view of one stored object's payload. The
// object is pinned against eviction for the lifetime of the view; Close
// drops the pin. The payload view must not be used after Close. No program
// path reads a view; bench's store probe times OpenMapped and Close.
type Mapped struct {
	store     *Store
	kind, key string
	data      []byte
	once      sync.Once
}

// Size returns the payload length in bytes.
func (m *Mapped) Size() int64 { return int64(len(m.data)) }

// Close releases the eviction pin. Idempotent and safe for concurrent use;
// the payload view is invalid afterwards.
func (m *Mapped) Close() {
	m.once.Do(func() {
		m.data = nil
		m.store.Release(m.kind, m.key)
	})
}

// OpenMapped returns a pinned, integrity-checked view of the object's
// payload, read from its segment as Get reads it: the checksum is verified
// on every open, and a corrupt object is removed and reported as a miss.
// The view pins the object, so eviction skips it until the caller Closes
// the view (typically scoped to one response).
func (s *Store) OpenMapped(kind, key string) (*Mapped, bool) {
	data, ok := s.read(objKey{kind, key}, true)
	if !ok {
		return nil, false
	}
	return &Mapped{store: s, kind: kind, key: key, data: data}, true
}
