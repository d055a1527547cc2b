package castore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"negativaml/internal/bufpool"
)

// maxImportBytes bounds one imported payload. Exported objects carry their
// length in the header, which arrives from the network before any payload
// byte — the cap keeps a corrupt or hostile header from claiming an absurd
// object.
const maxImportBytes = 1 << 30

// Export streams a stored object to w in its wire format — the 48-byte
// integrity header followed by the payload, its segment entry without the
// name, copied verbatim — and returns the bytes written. The receiver
// verifies the checksum on Import, so Export does not check the payload
// first; a corrupt object is caught on the importing side and served
// locally as a miss on the next Get. Exporting refreshes the object's
// recency and counts as a hit (it is a read serving real demand).
func (s *Store) Export(kind, key string, w io.Writer) (int64, error) {
	return s.export(objKey{kind, key}, w, false)
}

// export copies the object's entry from its segment to w, the name
// included when withName is set.
func (s *Store) export(id objKey, w io.Writer, withName bool) (int64, error) {
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.missLocked()
		s.mu.Unlock()
		return 0, fmt.Errorf("castore: unknown object %s/%s", id.kind, id.key)
	}
	s.lru.MoveToFront(o.el)
	seg, off, n := o.seg, o.off, entryLen(id, o.size)
	seg.rw.RLock()
	s.mu.Unlock()
	if !withName {
		skip := int64(2 + len(id.kind) + 1 + len(id.key))
		off, n = off+skip, n-skip
	}
	buf := bufpool.Get(64 << 10)
	written, err := io.CopyBuffer(w, io.NewSectionReader(seg.f, off, n), buf)
	bufpool.Put(buf)
	seg.rw.RUnlock()
	if err == nil && written != n {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return written, fmt.Errorf("castore: export %s/%s: %w", id.kind, id.key, err)
	}
	s.mu.Lock()
	s.hits++
	s.count("store.hits", 1)
	s.mu.Unlock()
	return written, nil
}

// Import reads one exported object (header + payload) from r, verifies the
// checksum against the header, and appends it under (kind, key) as Put
// does. The wire format carrying its own integrity header means a peer
// transfer is end-to-end verified: a payload corrupted in flight — or
// served corrupt by the exporter — is rejected here and never enters the
// store. Returns the payload size.
//
// The payload is read whole before the store is touched, into pooled
// 64 KiB chunks, each taken once the bytes before it have arrived, so a
// header's claimed length is never allocated ahead of its bytes; no lock
// is held while the peer is read. Any failure — short read, checksum
// mismatch — returns before the append, so an aborted import leaves
// nothing behind, which the anti-entropy repair plane depends on.
func (s *Store) Import(kind, key string, r io.Reader) (int64, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("castore: import %s/%s: header: %w", kind, key, err)
	}
	return s.importFrame(objKey{kind, key}, hdr[:], r)
}

// importFrame reads the payload that follows a frame's header from r,
// hashing it as it arrives, checks it and publishes the entry.
func (s *Store) importFrame(id objKey, rawHdr []byte, r io.Reader) (int64, error) {
	if !validName(id.kind) || !validName(id.key) {
		return 0, fmt.Errorf("castore: invalid object name %s/%s", id.kind, id.key)
	}
	hdr, err := parseHeader(rawHdr)
	if err != nil {
		return 0, fmt.Errorf("castore: import %s/%s: %w", id.kind, id.key, err)
	}
	if hdr.length > maxImportBytes {
		return 0, fmt.Errorf("castore: import %s/%s: object of %d bytes exceeds the import bound", id.kind, id.key, hdr.length)
	}
	parts := [][]byte{append(appendEntryName(nil, id.kind, id.key), rawHdr...)}
	defer func() {
		for _, p := range parts[1:] {
			bufpool.Put(p)
		}
	}()
	h := sha256.New()
	for left := hdr.length; left > 0; left -= int64(len(parts[len(parts)-1])) {
		parts = append(parts, bufpool.Get(64 << 10)[:min(left, 64<<10)])
		if _, err := io.ReadFull(r, parts[len(parts)-1]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("castore: import %s/%s: payload: %w", id.kind, id.key, err)
		}
		h.Write(parts[len(parts)-1])
	}
	if [sha256.Size]byte(h.Sum(nil)) != hdr.sum {
		return 0, fmt.Errorf("castore: import %s/%s: checksum mismatch", id.kind, id.key)
	}
	if err := s.publish(id, hdr.length, parts...); err != nil {
		return 0, err
	}
	return hdr.length, nil
}

// A multi-object body carries many objects in one stream: entries back to
// back, each the object's name — its length as two little-endian bytes,
// then kind/key — and then its frame: the 48-byte integrity header and
// the payload, what Export streams. A segment file is the same layout.

// AppendEntry appends payload to dst as one entry of a multi-object body,
// named (kind, key), for callers that push bytes they hold in memory
// rather than a stored object.
func AppendEntry(dst []byte, kind, key string, payload []byte) []byte {
	return append(appendHeader(appendEntryName(dst, kind, key), payload), payload...)
}

func appendEntryName(dst []byte, kind, key string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(kind)+1+len(key)))
	dst = append(dst, kind...)
	dst = append(dst, '/')
	return append(dst, key...)
}

// readHead reads one entry's name and header from r, reusing buf, and
// returns the name split at its first '/', the parsed header and the raw
// header bytes (in buf). io.EOF means r ended cleanly where an entry
// would start.
func readHead(r io.Reader, buf []byte) (objKey, header, []byte, error) {
	var n [2]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return objKey{}, header{}, buf, err
	}
	size := int(binary.LittleEndian.Uint16(n[:])) + headerSize
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return objKey{}, header{}, buf, err
	}
	kind, key, _ := strings.Cut(string(buf[:size-headerSize]), "/")
	hdr, err := parseHeader(buf[size-headerSize:])
	return objKey{kind, key}, hdr, buf, err
}

// An EntryReader reads a multi-object body one entry at a time, under a
// bound on the whole body: Next reads an entry's name and frame header,
// and the entry's payload is read whole by Payload, or read past by the
// next Next. The bound is checked before any byte is read past it: an
// entry whose name, header or claimed payload would end beyond it is an
// error, so a header that claims an absurd length costs nothing, and a
// body that runs on past the bound is refused at its first byte there.
// The body's bytes are never trusted: Payload checks the payload against
// its header's sum, and ImportEntries does as it streams.
type EntryReader struct {
	// body is the body with one byte beyond the bound, so a body that
	// ends exactly at the bound is told from one that runs on.
	body    io.LimitedReader
	buf     []byte
	id      objKey
	hdr     header
	payload io.LimitedReader
}

// NewEntryReader reads the multi-object body r, of at most limit bytes.
func NewEntryReader(r io.Reader, limit int64) *EntryReader {
	e := &EntryReader{body: io.LimitedReader{R: r, N: limit + 1}}
	e.payload.R = &e.body
	return e
}

// errOverBound is the error of a body that would pass its bound.
var errOverBound = errors.New("body exceeds its bound")

// left is what the bound leaves of the body.
func (e *EntryReader) left() int64 { return e.body.N - 1 }

// Next reads past what is left of the current entry's payload, then the
// next entry's name, split at its first '/', and its frame header. It
// returns io.EOF where the body ends cleanly between entries; a body cut
// short inside an entry, a malformed header, or a body that passes the
// bound is an error, and the reader is then spent.
func (e *EntryReader) Next() (kind, key string, err error) {
	if err := e.skip(); err != nil {
		return "", "", err
	}
	id, hdr, buf, err := readHead(&e.body, e.buf)
	e.buf = buf
	switch {
	case err == io.EOF:
		return "", "", io.EOF
	case e.body.N == 0:
		// readHead read the byte past the bound.
		return "", "", errOverBound
	case err != nil:
		return "", "", err
	case hdr.length > e.left():
		return "", "", fmt.Errorf("entry %s/%s of %d bytes: %w", id.kind, id.key, hdr.length, errOverBound)
	}
	e.id, e.hdr, e.payload.N = id, hdr, hdr.length
	return id.kind, id.key, nil
}

// skip reads past what is left of the current entry's payload; a body
// that ends before it is cut short.
func (e *EntryReader) skip() error {
	if e.payload.N == 0 {
		return nil
	}
	io.Copy(io.Discard, &e.payload)
	if e.payload.N > 0 {
		return fmt.Errorf("entry %s/%s: payload: %w", e.id.kind, e.id.key, io.ErrUnexpectedEOF)
	}
	return nil
}

// Payload reads the current entry's payload whole and checks it against
// its header's sum. Memory follows the bytes that arrive, never the
// length the header claims: a payload is read into 64 KiB, then into a
// copy twice the size each time that fills, so a read allocates at most
// twice the bytes it got, or 64 KiB.
func (e *EntryReader) Payload() ([]byte, error) {
	n := e.payload.N
	p := make([]byte, min(n, 64<<10))
	for got := 0; ; {
		if _, err := io.ReadFull(&e.payload, p[got:]); err != nil {
			return nil, fmt.Errorf("entry %s/%s: payload: %w", e.id.kind, e.id.key, io.ErrUnexpectedEOF)
		}
		if got = len(p); int64(got) == n {
			break
		}
		grown := make([]byte, min(n, 2*int64(got)))
		copy(grown, p)
		p = grown
	}
	if sha256.Sum256(p) != e.hdr.sum {
		return nil, fmt.Errorf("entry %s/%s: checksum mismatch", e.id.kind, e.id.key)
	}
	return p, nil
}

// ExportEntry writes the stored object (kind, key) to w as one entry of a
// multi-object body: its segment entry, name and frame, verbatim.
func (s *Store) ExportEntry(kind, key string, w io.Writer) error {
	_, err := s.export(objKey{kind, key}, w, true)
	return err
}

// ImportEntries reads a multi-object body of at most limit bytes from r
// (an EntryReader) and Imports each entry on its own when accept takes
// its kind; a refused entry is read past and never stored. It returns, in
// body order, whether each entry is stored (already present counts) — one
// that fails its checksum is not, and the body goes on — and the error
// that ended the body early: an entry cut short, malformed or past the
// bound publishes nothing, and the entries before it stay.
func (s *Store) ImportEntries(r io.Reader, limit int64, accept func(kind string) bool) ([]bool, error) {
	var stored []bool
	e := NewEntryReader(r, limit)
	for {
		kind, _, err := e.Next()
		if err == io.EOF {
			return stored, nil
		} else if err != nil {
			return stored, fmt.Errorf("castore: entry %d: %w", len(stored), err)
		}
		ok := accept(kind)
		if ok {
			_, err := s.importFrame(e.id, e.buf[len(e.buf)-headerSize:], &e.payload)
			ok = err == nil
		}
		// The payload is read to its end whatever the import did, so the
		// next entry starts where it should, and what is missing then was
		// cut off.
		if err := e.skip(); err != nil {
			return stored, fmt.Errorf("castore: %w", err)
		}
		stored = append(stored, ok)
	}
}
