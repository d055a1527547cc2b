package castore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"negativaml/internal/bufpool"
)

// maxImportBytes bounds one imported payload. Exported objects carry their
// length in the header, which arrives from the network before any payload
// byte — the cap keeps a corrupt or hostile header from provisioning an
// absurd buffer.
const maxImportBytes = 1 << 30

// Frame appends payload in the store's integrity wire format — the same
// 48-byte header + payload layout Export streams — to dst, for callers
// that push bytes they hold in memory rather than a stored file.
func Frame(dst, payload []byte) []byte {
	dst = append(dst, makeHeader(payload)...)
	return append(dst, payload...)
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
		return 0, fmt.Errorf("castore: unknown object %s/%s", kind, key)
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

// A multi-object body carries many objects in one stream: entries back to
// back, each the object's name — its length as two little-endian bytes,
// then kind/key — and then its frame (Frame, Export).

// AppendEntry appends payload to dst as one entry of a multi-object body,
// named (kind, key).
func AppendEntry(dst []byte, kind, key string, payload []byte) []byte {
	return Frame(appendEntryName(dst, kind, key), payload)
}

func appendEntryName(dst []byte, kind, key string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(kind)+1+len(key)))
	dst = append(dst, kind...)
	dst = append(dst, '/')
	return append(dst, key...)
}

// ExportEntry writes the stored object (kind, key) to w as one entry of a
// multi-object body: its name, then its Export frame.
func (s *Store) ExportEntry(kind, key string, w io.Writer) error {
	if _, err := w.Write(appendEntryName(nil, kind, key)); err != nil {
		return err
	}
	_, err := s.Export(kind, key, w)
	return err
}

// ImportEntries reads a multi-object body from r and Imports each entry on
// its own when accept takes its kind; a refused entry is read past and
// never stored. It returns, in body order, whether each entry is stored
// (already present counts) — one that fails its checksum is not, and the
// body goes on — and the error that ended the body early: an entry cut
// short or malformed publishes nothing, and the entries before it stay.
func (s *Store) ImportEntries(r io.Reader, accept func(kind string) bool) ([]bool, error) {
	var stored []bool
	for {
		var n [2]byte
		if _, err := io.ReadFull(r, n[:]); err == io.EOF {
			return stored, nil
		} else if err != nil {
			return stored, fmt.Errorf("castore: entry %d: name: %w", len(stored), err)
		}
		head := make([]byte, int(binary.LittleEndian.Uint16(n[:]))+headerSize)
		if _, err := io.ReadFull(r, head); err != nil {
			return stored, fmt.Errorf("castore: entry %d: name and header: %w", len(stored), err)
		}
		name, raw := head[:len(head)-headerSize], head[len(head)-headerSize:]
		kind, key, _ := strings.Cut(string(name), "/")
		hdr, err := parseHeader(raw)
		if err != nil {
			return stored, fmt.Errorf("castore: entry %s/%s: %w", kind, key, err)
		}
		// Import reads the header again, then the payload; the payload is
		// read to its end whatever Import did, so the next entry starts
		// where it should, and what is missing then was cut off.
		payload := &io.LimitedReader{R: r, N: hdr.length}
		ok := accept(kind)
		if ok {
			_, err := s.Import(kind, key, io.MultiReader(bytes.NewReader(raw), payload))
			ok = err == nil
		}
		io.Copy(io.Discard, payload)
		if payload.N > 0 {
			return stored, fmt.Errorf("castore: entry %s/%s: payload: %w", kind, key, io.ErrUnexpectedEOF)
		}
		stored = append(stored, ok)
	}
}
