package castore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"negativaml/internal/bufpool"
)

// ErrUnknownObject is returned by Export and Stat for a (kind, key) the
// store does not hold.
var ErrUnknownObject = errors.New("castore: unknown object")

// maxImportBytes bounds one imported payload. Exported objects carry their
// length in the header, which arrives from the network before any payload
// byte — the cap keeps a corrupt or hostile header from provisioning an
// absurd buffer.
const maxImportBytes = 1 << 30

// Frame wraps a payload in the store's integrity wire format — the same
// 48-byte header + payload layout Export streams — for callers that push
// bytes they hold in memory over the object-transfer route rather than a
// stored file.
func Frame(payload []byte) []byte {
	out := make([]byte, 0, headerSize+len(payload))
	out = append(out, makeHeader(payload)...)
	return append(out, payload...)
}

// Stat returns the payload size of a stored object without touching its
// recency (the companion to Has for callers that need a Content-Length).
func (s *Store) Stat(kind, key string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[objKey{kind, key}]
	if !ok {
		return 0, false
	}
	return o.size, true
}

// Export streams a stored object to w in its durable wire format — the
// 48-byte integrity header followed by the payload, exactly the on-disk
// layout — and returns the bytes written. The receiver verifies the
// checksum on Import, so Export does not re-read the payload to validate
// it first; a corrupt object is caught on the importing side and served
// locally as a miss on the next Get. Exporting refreshes the object's
// recency and counts as a hit (it is a read serving real demand).
func (s *Store) Export(kind, key string, w io.Writer) (int64, error) {
	id := objKey{kind, key}
	s.mu.Lock()
	o, ok := s.objects[id]
	if ok {
		s.lru.MoveToFront(o.el)
	}
	s.mu.Unlock()
	if !ok {
		s.mu.Lock()
		s.misses++
		s.count("store.misses", 1)
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %s/%s", ErrUnknownObject, kind, key)
	}
	f, err := os.Open(s.objectPath(kind, key))
	if err != nil {
		return 0, fmt.Errorf("castore: export %s/%s: %w", kind, key, err)
	}
	defer f.Close()
	// Pooled copy chunk: io.Copy would allocate a fresh 32 KiB buffer per
	// export, and peer object streaming exports in bursts. The wrapper
	// hides *os.File's WriterTo so CopyBuffer actually uses our buffer —
	// the WriterTo fast path only helps when the destination is a raw
	// socket, which an HTTP response writer is not.
	buf := bufpool.Get(64 << 10)
	n, err := io.CopyBuffer(w, struct{ io.Reader }{f}, buf)
	bufpool.Put(buf)
	if err != nil {
		return n, fmt.Errorf("castore: export %s/%s: %w", kind, key, err)
	}
	s.mu.Lock()
	s.hits++
	s.count("store.hits", 1)
	s.mu.Unlock()
	return n, nil
}

// Import reads one exported object (header + payload) from r, verifies the
// checksum against the header, and stores it under (kind, key) with Put's
// full crash-safety. The wire format carrying its own integrity header
// means a peer transfer is end-to-end verified: a payload corrupted in
// flight — or served corrupt by the exporter — is rejected here and never
// enters the store. Returns the payload size.
//
// The payload streams straight into a temp file (hashing as it goes)
// rather than buffering in memory, so an import costs one 64 KiB chunk
// regardless of object size. Any mid-stream failure — short read,
// checksum mismatch, write error — removes the temp file before
// returning: an aborted import leaves no partial state anywhere, which
// the anti-entropy repair plane depends on (a repair push severed by a
// dying peer must not leave debris that the next repair round, or Open's
// boot sweep, has to reason about).
func (s *Store) Import(kind, key string, r io.Reader) (int64, error) {
	if !validName(kind) || !validName(key) {
		return 0, fmt.Errorf("castore: invalid object name %s/%s", kind, key)
	}
	var hdrBuf [headerSize]byte
	if _, err := io.ReadFull(r, hdrBuf[:]); err != nil {
		return 0, fmt.Errorf("castore: import %s/%s: header: %w", kind, key, err)
	}
	hdr, err := parseHeader(hdrBuf[:])
	if err != nil {
		return 0, fmt.Errorf("castore: import %s/%s: %w", kind, key, err)
	}
	if hdr.length > maxImportBytes {
		return 0, fmt.Errorf("castore: import %s/%s: object of %d bytes exceeds the import bound", kind, key, hdr.length)
	}
	if err := s.ensureDir(filepath.Dir(s.objectPath(kind, key))); err != nil {
		return 0, fmt.Errorf("castore: %w", err)
	}
	tmp, err := os.CreateTemp(s.tmpDir(), key+".*")
	if err != nil {
		return 0, fmt.Errorf("castore: %w", err)
	}
	fail := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	// The temp file holds the durable layout — header then payload — so a
	// verified stage publishes with a bare rename. The header was already
	// parsed; write it back verbatim.
	if _, err := tmp.Write(hdrBuf[:]); err != nil {
		return fail(fmt.Errorf("castore: import %s/%s: %w", kind, key, err))
	}
	h := sha256.New()
	buf := bufpool.Get(64 << 10)
	n, cpErr := io.CopyBuffer(io.MultiWriter(tmp, h), io.LimitReader(r, hdr.length), buf)
	bufpool.Put(buf)
	if cpErr != nil {
		return fail(fmt.Errorf("castore: import %s/%s: payload: %w", kind, key, cpErr))
	}
	if n != hdr.length {
		return fail(fmt.Errorf("castore: import %s/%s: payload: %w", kind, key, io.ErrUnexpectedEOF))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if sum != hdr.sum {
		return fail(fmt.Errorf("castore: import %s/%s: checksum mismatch", kind, key))
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("castore: import %s/%s: %w", kind, key, err)
	}
	if err := s.publishTemp(kind, key, tmp.Name(), hdr.length); err != nil {
		return 0, err
	}
	return hdr.length, nil
}
