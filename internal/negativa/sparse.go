package negativa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
)

// SparseImage is a compacted library held as a reference to the original
// bytes plus the merged set of zeroed ranges, instead of a mutated copy.
// All size accounting (effective bytes, per-section effective bytes, the
// resident-size model) is computed analytically from the range set and the
// library's zero-byte prefix sum, and the byte-identical eager image is
// produced only on demand by Materialize or streamed by WriteTo.
//
// A SparseImage is immutable and safe for concurrent use; its memory cost
// is O(ranges), so caches can retain thousands of entries without pinning
// full library copies.
type SparseImage struct {
	lib *elfx.Library
	// zeroed is the merged, sorted, clamped set of ranges compaction
	// removes. Invariant: ranges are disjoint, non-empty, within
	// [0, len(lib.Data)).
	zeroed []fatbin.Range
}

// NewSparseImage builds a sparse image over lib with the given ranges
// zeroed (merged and clamped to the file).
func NewSparseImage(lib *elfx.Library, zeroed []fatbin.Range) *SparseImage {
	size := int64(len(lib.Data))
	clamped := make([]fatbin.Range, 0, len(zeroed))
	for _, r := range zeroed {
		if r.Start < 0 {
			r.Start = 0
		}
		if r.End > size {
			r.End = size
		}
		if r.Start < r.End {
			clamped = append(clamped, r)
		}
	}
	return &SparseImage{lib: lib, zeroed: elfx.MergeRanges(clamped)}
}

// Lib returns the original library the image references.
func (s *SparseImage) Lib() *elfx.Library { return s.lib }

// Len returns the image size in bytes (identical to the original file —
// compaction never changes offsets).
func (s *SparseImage) Len() int64 { return int64(len(s.lib.Data)) }

// ZeroedRanges returns the merged zeroed-range set. Read-only.
func (s *SparseImage) ZeroedRanges() []fatbin.Range { return s.zeroed }

// Materialize produces the eager compacted image: a copy of the original
// with every zeroed range cleared — byte-identical to what the in-place
// compactor used to return.
func (s *SparseImage) Materialize() []byte {
	out := make([]byte, len(s.lib.Data))
	copy(out, s.lib.Data)
	for _, r := range s.zeroed {
		clear(out[r.Start:r.End])
	}
	return out
}

// MaterializeInto writes the eager compacted image into dst, which must be
// at least Len() bytes, and returns the filled prefix. It is Materialize
// with caller-owned memory, so hot paths (the verify clone, peer streaming)
// can recycle scratch buffers via bufpool instead of allocating a full
// library copy per call.
func (s *SparseImage) MaterializeInto(dst []byte) []byte {
	if int64(len(dst)) < s.Len() {
		panic("negativa: MaterializeInto: dst smaller than image")
	}
	n := copy(dst, s.lib.Data)
	out := dst[:n]
	for _, r := range s.zeroed {
		clear(out[r.Start:r.End])
	}
	return out
}

// zeroChunk is the shared scratch written for zeroed ranges by WriteTo.
var zeroChunk [32 * 1024]byte

// WriteTo streams the compacted image without materializing it: original
// bytes for retained ranges, zeros for removed ones. It implements
// io.WriterTo, so HTTP handlers can serve debloated libraries with O(1)
// extra memory.
func (s *SparseImage) WriteTo(w io.Writer) (int64, error) {
	data := s.lib.Data
	var written int64
	cursor := int64(0)
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}
	for _, r := range s.zeroed {
		if r.Start > cursor {
			if err := emit(data[cursor:r.Start]); err != nil {
				return written, err
			}
		}
		for off := r.Start; off < r.End; off += int64(len(zeroChunk)) {
			n := r.End - off
			if n > int64(len(zeroChunk)) {
				n = int64(len(zeroChunk))
			}
			if err := emit(zeroChunk[:n]); err != nil {
				return written, err
			}
		}
		cursor = r.End
	}
	if cursor < int64(len(data)) {
		if err := emit(data[cursor:]); err != nil {
			return written, err
		}
	}
	return written, nil
}

// removedNonZeroIn returns the non-zero original bytes that compaction
// removes within r — the delta between the original's and the compacted
// image's effective size over r.
func (s *SparseImage) removedNonZeroIn(r fatbin.Range) int64 {
	idx := s.lib.Index()
	var n int64
	for _, z := range s.zeroed {
		if z.End <= r.Start {
			continue
		}
		if z.Start >= r.End {
			break
		}
		sec := fatbin.Range{Start: max(z.Start, r.Start), End: min(z.End, r.End)}
		n += idx.NonZeroBytesIn(sec)
	}
	return n
}

// NonZeroBytes returns the compacted image's effective (non-zero) size,
// computed analytically: original effective size minus live bytes covered
// by zeroed ranges. Equals elfx.NonZeroBytes(s.Materialize()).
func (s *SparseImage) NonZeroBytes() int64 {
	idx := s.lib.Index()
	return idx.NonZeroBytes() - s.removedNonZeroIn(fatbin.Range{Start: 0, End: s.Len()})
}

// NonZeroBytesIn returns the compacted image's effective size within r.
// Equals elfx.NonZeroBytesIn(s.Materialize(), r).
func (s *SparseImage) NonZeroBytesIn(r fatbin.Range) int64 {
	idx := s.lib.Index()
	return idx.NonZeroBytesIn(r) - s.removedNonZeroIn(r)
}

// ResidentBytes computes the resident-size model of the compacted image
// analytically: a page counts fully unless every byte in it is zero in the
// original or covered by a zeroed range. Equals
// elfx.ResidentBytes(s.Materialize()).
func (s *SparseImage) ResidentBytes() int64 {
	size := s.Len()
	idx := s.lib.Index()
	var n int64
	ri := 0
	for off := int64(0); off < size; off += elfx.PageSize {
		end := off + elfx.PageSize
		if end > size {
			end = size
		}
		live := idx.NonZeroBytesIn(fatbin.Range{Start: off, End: end})
		// Advance to the first range that could overlap this page, then
		// subtract removed live bytes; ranges are sorted so the cursor
		// only moves forward across pages.
		for ri < len(s.zeroed) && s.zeroed[ri].End <= off {
			ri++
		}
		for i := ri; i < len(s.zeroed) && s.zeroed[i].Start < end && live > 0; i++ {
			z := s.zeroed[i]
			live -= idx.NonZeroBytesIn(fatbin.Range{Start: max(z.Start, off), End: min(z.End, end)})
		}
		if live > 0 {
			n += end - off
		}
	}
	return n
}

// RetainedBytes models the heap the sparse representation itself pins
// beyond the shared original image: the range set plus fixed overhead.
// Byte-bounded caches charge entries with it.
func (s *SparseImage) RetainedBytes() int64 {
	return 48 + 16*int64(len(s.zeroed))
}

// Sparse-image binary encoding: a versioned header binding the range set to
// the exact library image it compacts, followed by the ranges.
//
//	magic     u32  ("NSP1")
//	version   u16
//	flags     u16  (reserved, zero)
//	libSize   u64  size of the library image the ranges apply to
//	libDigest [32] SHA-256 of that image
//	nRanges   u32
//	ranges    (start u64, end u64) × nRanges, sorted, disjoint, non-empty
//
// The digest makes a persisted range set self-checking: Decode refuses to
// marry ranges to any library other than the one they were computed for, so
// a content-addressed store can hold sparse images as O(ranges) objects and
// reconstruct byte-identical compacted libraries on demand.
const (
	sparseMagic      uint32 = 0x3150534e // "NSP1" little-endian
	sparseVersion    uint16 = 1
	sparseHeaderSize        = 52
)

// Encode serializes the sparse image's range set in the fixed-width v1
// frame, bound to the library's content digest. The serving plane writes
// EncodeWire; this stays as the encoder of the v1 frames the read-compat
// tests and the benchmark probes feed DecodeSparseImage.
func (s *SparseImage) Encode() []byte {
	le := binary.LittleEndian
	buf := make([]byte, sparseHeaderSize+16*len(s.zeroed))
	le.PutUint32(buf[0:], sparseMagic)
	le.PutUint16(buf[4:], sparseVersion)
	le.PutUint64(buf[8:], uint64(len(s.lib.Data)))
	d := s.lib.ContentDigest()
	copy(buf[16:48], d[:])
	le.PutUint32(buf[48:], uint32(len(s.zeroed)))
	off := sparseHeaderSize
	for _, r := range s.zeroed {
		le.PutUint64(buf[off:], uint64(r.Start))
		le.PutUint64(buf[off+8:], uint64(r.End))
		off += 16
	}
	return buf
}

// DecodeSparseImage reconstructs a sparse image over lib from an encoded
// range set, accepting either codec version by magic: the compact
// delta/varint v2 encoding (what is stored and sent) or the fixed-width v1
// encoding (stores written by earlier builds). Corrupt input — bad magic or version, a
// digest or size that does not match lib, truncation, or ranges that are
// unsorted, overlapping, empty, or out of bounds — is rejected with an
// error, never a panic: the decoder is a fuzz target and persisted bytes
// are untrusted.
func DecodeSparseImage(lib *elfx.Library, data []byte) (*SparseImage, error) {
	le := binary.LittleEndian
	if len(data) < 4 {
		return nil, fmt.Errorf("negativa: sparse image: truncated header (%d bytes)", len(data))
	}
	if m := le.Uint32(data[0:]); m != sparseMagic {
		if m == sparseMagicV2 {
			return decodeWireV2(lib, data)
		}
		return nil, fmt.Errorf("negativa: sparse image: bad magic %#x", m)
	}
	if len(data) < sparseHeaderSize {
		return nil, fmt.Errorf("negativa: sparse image: truncated header (%d bytes)", len(data))
	}
	if v := le.Uint16(data[4:]); v != sparseVersion {
		return nil, fmt.Errorf("negativa: sparse image: unsupported version %d", v)
	}
	size := int64(len(lib.Data))
	if enc := le.Uint64(data[8:]); enc != uint64(size) {
		return nil, fmt.Errorf("negativa: sparse image: encoded for a %d-byte image, library is %d bytes", enc, size)
	}
	d := lib.ContentDigest()
	if !bytes.Equal(data[16:48], d[:]) {
		return nil, fmt.Errorf("negativa: sparse image: library digest mismatch")
	}
	n := le.Uint32(data[48:])
	if int64(len(data)-sparseHeaderSize) != 16*int64(n) {
		return nil, fmt.Errorf("negativa: sparse image: %d ranges declared, %d bytes of ranges present", n, len(data)-sparseHeaderSize)
	}
	zeroed := make([]fatbin.Range, 0, n)
	prevEnd := int64(0)
	off := sparseHeaderSize
	for i := uint32(0); i < n; i++ {
		start := int64(le.Uint64(data[off:]))
		end := int64(le.Uint64(data[off+8:]))
		off += 16
		// The canonical form Encode emits: sorted, disjoint (merged, so
		// gaps of ≥1 byte between ranges), non-empty, in bounds. Anything
		// else is corruption.
		if start < prevEnd || end <= start || end > size {
			return nil, fmt.Errorf("negativa: sparse image: range %d [%d, %d) malformed", i, start, end)
		}
		zeroed = append(zeroed, fatbin.Range{Start: start, End: end})
		prevEnd = end
	}
	return &SparseImage{lib: lib, zeroed: zeroed}, nil
}
