package negativa

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
)

// Compact sparse codec (version 2), the one encoding the serving plane
// writes to disk and to the wire: the same digest-bound range set as the v1
// encoding, with the fixed 16-byte-per-range table replaced by delta/varint
// coding. Zeroed ranges are sorted and disjoint, so each is
// fully determined by its gap from the previous range's end and its
// length — two uvarints, typically 2–6 bytes against v1's fixed 16.
//
//	magic     u32  ("NSP2")
//	version   u16  (2)
//	flags     u16  (reserved, zero)
//	libSize   u64  size of the library image the ranges apply to
//	libDigest [32] SHA-256 of that image
//	nRanges   uvarint
//	ranges    (gap uvarint, length uvarint) × nRanges
//	               gap    = start − previous range's end (≥ 0)
//	               length = end − start (≥ 1)
//
// DecodeSparseImage accepts either version by magic, so stores written
// before v2 became the stored form still restore; nothing writes v1 any
// more (SparseImage.Encode and TranscodeSparseWire remain as the v1
// read-compat fixture the tests and the benchmark probes build frames
// with).
const (
	sparseMagicV2   uint32 = 0x3250534e // "NSP2" little-endian
	sparseVersionV2 uint16 = 2
	// sparseWirePrefix is the fixed part of the v2 header, before the
	// varint range table; identical layout to the v1 header.
	sparseWirePrefix = 48
)

// EncodeWire serializes the sparse image in the compact v2 codec — the
// bytes persisted, replicated and answered to peers alike.
func (s *SparseImage) EncodeWire() []byte {
	buf := make([]byte, sparseWirePrefix, sparseWirePrefix+binary.MaxVarintLen32+2*binary.MaxVarintLen64*len(s.zeroed))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], sparseMagicV2)
	le.PutUint16(buf[4:], sparseVersionV2)
	le.PutUint64(buf[8:], uint64(len(s.lib.Data)))
	d := s.lib.ContentDigest()
	copy(buf[16:48], d[:])
	buf = binary.AppendUvarint(buf, uint64(len(s.zeroed)))
	prevEnd := int64(0)
	for _, r := range s.zeroed {
		buf = binary.AppendUvarint(buf, uint64(r.Start-prevEnd))
		buf = binary.AppendUvarint(buf, uint64(r.End-r.Start))
		prevEnd = r.End
	}
	return buf
}

// decodeWireV2 validates and decodes a v2 frame against lib. Same contract
// as the v1 path of DecodeSparseImage: corrupt input — truncation, digest
// or size mismatch, malformed varints, ranges that leave the canonical
// form, trailing bytes — returns an error, never panics.
func decodeWireV2(lib *elfx.Library, data []byte) (*SparseImage, error) {
	le := binary.LittleEndian
	if len(data) < sparseWirePrefix {
		return nil, fmt.Errorf("negativa: sparse wire: truncated header (%d bytes)", len(data))
	}
	if v := le.Uint16(data[4:]); v != sparseVersionV2 {
		return nil, fmt.Errorf("negativa: sparse wire: unsupported version %d", v)
	}
	if fl := le.Uint16(data[6:]); fl != 0 {
		return nil, fmt.Errorf("negativa: sparse wire: reserved flags %#x set", fl)
	}
	size := int64(len(lib.Data))
	if enc := le.Uint64(data[8:]); enc != uint64(size) {
		return nil, fmt.Errorf("negativa: sparse wire: encoded for a %d-byte image, library is %d bytes", enc, size)
	}
	d := lib.ContentDigest()
	if !bytes.Equal(data[16:48], d[:]) {
		return nil, fmt.Errorf("negativa: sparse wire: library digest mismatch")
	}
	zeroed, err := decodeWireRanges(data[sparseWirePrefix:], size)
	if err != nil {
		return nil, err
	}
	return &SparseImage{lib: lib, zeroed: zeroed}, nil
}

// uvarint is binary.Uvarint with canonical-form enforcement: an encoding
// padded with trailing zero continuation groups (a longer spelling of the
// same value) is rejected as malformed, so every value has exactly one
// accepted byte sequence and accepted frames re-encode byte-identically.
func uvarint(b []byte) (uint64, int) {
	v, w := binary.Uvarint(b)
	if w > 1 && b[w-1] == 0 {
		return 0, 0
	}
	return v, w
}

// decodeWireRanges decodes the uvarint range table of a v2 frame into the
// canonical range set for an image of the given size.
func decodeWireRanges(tab []byte, size int64) ([]fatbin.Range, error) {
	n, off := uvarint(tab)
	if off <= 0 {
		return nil, fmt.Errorf("negativa: sparse wire: malformed range count")
	}
	// Each range needs at least two varint bytes: an honest count can
	// never exceed half the remaining table, so a hostile count cannot
	// provision an absurd slice.
	if n > uint64(len(tab)-off)/2 {
		return nil, fmt.Errorf("negativa: sparse wire: %d ranges declared, %d bytes of table present", n, len(tab)-off)
	}
	zeroed := make([]fatbin.Range, 0, n)
	prevEnd := int64(0)
	for i := uint64(0); i < n; i++ {
		gap, w := uvarint(tab[off:])
		if w <= 0 {
			return nil, fmt.Errorf("negativa: sparse wire: range %d: malformed gap varint", i)
		}
		off += w
		length, w := uvarint(tab[off:])
		if w <= 0 {
			return nil, fmt.Errorf("negativa: sparse wire: range %d: malformed length varint", i)
		}
		off += w
		// Bounds in uint64 space first so hostile values cannot overflow
		// the int64 arithmetic below.
		if length == 0 || gap > uint64(size-prevEnd) || length > uint64(size-prevEnd)-gap {
			return nil, fmt.Errorf("negativa: sparse wire: range %d out of bounds", i)
		}
		start := prevEnd + int64(gap)
		end := start + int64(length)
		zeroed = append(zeroed, fatbin.Range{Start: start, End: end})
		prevEnd = end
	}
	if off != len(tab) {
		return nil, fmt.Errorf("negativa: sparse wire: %d trailing bytes after range table", len(tab)-off)
	}
	return zeroed, nil
}

// SparseWireVersion reports the codec version of an encoded sparse image
// (1 or 2) by magic, or 0 for bytes that are neither.
func SparseWireVersion(data []byte) int {
	if len(data) < 4 {
		return 0
	}
	switch binary.LittleEndian.Uint32(data) {
	case sparseMagic:
		return 1
	case sparseMagicV2:
		return 2
	}
	return 0
}

// TranscodeSparseWire re-encodes an encoded sparse image into the
// requested codec version (1 or 2) without needing the library: both
// codecs carry the image size and digest, so the range set re-frames
// byte-for-byte. Transcoding validates the input as strictly as decoding —
// the result is canonical or the call fails. Already-right-version input
// is returned unchanged (no copy).
func TranscodeSparseWire(data []byte, toVersion int) ([]byte, error) {
	from := SparseWireVersion(data)
	if from == 0 {
		return nil, fmt.Errorf("negativa: sparse wire: unrecognized encoding")
	}
	if toVersion != 1 && toVersion != 2 {
		return nil, fmt.Errorf("negativa: sparse wire: unknown target version %d", toVersion)
	}
	size, digest, zeroed, err := decodeWireAny(data)
	if err != nil {
		return nil, err
	}
	if from == toVersion {
		return data, nil
	}
	le := binary.LittleEndian
	if toVersion == 2 {
		buf := make([]byte, sparseWirePrefix, sparseWirePrefix+binary.MaxVarintLen32+2*binary.MaxVarintLen64*len(zeroed))
		le.PutUint32(buf[0:], sparseMagicV2)
		le.PutUint16(buf[4:], sparseVersionV2)
		le.PutUint64(buf[8:], size)
		copy(buf[16:48], digest)
		buf = binary.AppendUvarint(buf, uint64(len(zeroed)))
		prevEnd := int64(0)
		for _, r := range zeroed {
			buf = binary.AppendUvarint(buf, uint64(r.Start-prevEnd))
			buf = binary.AppendUvarint(buf, uint64(r.End-r.Start))
			prevEnd = r.End
		}
		return buf, nil
	}
	buf := make([]byte, sparseHeaderSize+16*len(zeroed))
	le.PutUint32(buf[0:], sparseMagic)
	le.PutUint16(buf[4:], sparseVersion)
	le.PutUint64(buf[8:], size)
	copy(buf[16:48], digest)
	le.PutUint32(buf[48:], uint32(len(zeroed)))
	off := sparseHeaderSize
	for _, r := range zeroed {
		le.PutUint64(buf[off:], uint64(r.Start))
		le.PutUint64(buf[off+8:], uint64(r.End))
		off += 16
	}
	return buf, nil
}

// decodeWireAny decodes either codec version's frame without a library,
// validating structure against the encoded image size (the digest is
// passed through — it binds at DecodeSparseImage time).
func decodeWireAny(data []byte) (size uint64, digest []byte, zeroed []fatbin.Range, err error) {
	le := binary.LittleEndian
	if len(data) < sparseWirePrefix {
		return 0, nil, nil, fmt.Errorf("negativa: sparse wire: truncated header (%d bytes)", len(data))
	}
	size = le.Uint64(data[8:])
	if size > 1<<62 {
		return 0, nil, nil, fmt.Errorf("negativa: sparse wire: implausible image size %d", size)
	}
	if fl := le.Uint16(data[6:]); fl != 0 {
		return 0, nil, nil, fmt.Errorf("negativa: sparse wire: reserved flags %#x set", fl)
	}
	digest = data[16:48]
	switch le.Uint32(data) {
	case sparseMagic:
		if v := le.Uint16(data[4:]); v != sparseVersion {
			return 0, nil, nil, fmt.Errorf("negativa: sparse wire: unsupported version %d", v)
		}
		if len(data) < sparseHeaderSize {
			return 0, nil, nil, fmt.Errorf("negativa: sparse wire: truncated header (%d bytes)", len(data))
		}
		n := le.Uint32(data[48:])
		if int64(len(data)-sparseHeaderSize) != 16*int64(n) {
			return 0, nil, nil, fmt.Errorf("negativa: sparse wire: %d ranges declared, %d bytes of ranges present", n, len(data)-sparseHeaderSize)
		}
		zeroed = make([]fatbin.Range, 0, n)
		prevEnd := int64(0)
		off := sparseHeaderSize
		for i := uint32(0); i < n; i++ {
			start := int64(le.Uint64(data[off:]))
			end := int64(le.Uint64(data[off+8:]))
			off += 16
			if start < prevEnd || end <= start || uint64(end) > size {
				return 0, nil, nil, fmt.Errorf("negativa: sparse wire: range %d [%d, %d) malformed", i, start, end)
			}
			zeroed = append(zeroed, fatbin.Range{Start: start, End: end})
			prevEnd = end
		}
		return size, digest, zeroed, nil
	case sparseMagicV2:
		if v := le.Uint16(data[4:]); v != sparseVersionV2 {
			return 0, nil, nil, fmt.Errorf("negativa: sparse wire: unsupported version %d", v)
		}
		zeroed, err = decodeWireRanges(data[sparseWirePrefix:], int64(size))
		if err != nil {
			return 0, nil, nil, err
		}
		return size, digest, zeroed, nil
	}
	return 0, nil, nil, fmt.Errorf("negativa: sparse wire: unrecognized encoding")
}
