package negativa

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"negativaml/internal/elfx"
)

// The compact-result record: one locate+compact result as one binary
// object — what the serving plane stores on disk, replicates and answers
// to peers. Report, symbol lists and range set travel together, so a
// reader pays one object read and one decode per result.
//
//	magic      u32  ("NRC1")
//	version    u16  (1)
//	flags      u16  (reserved, zero)
//	libDigest  [32] SHA-256 of the library image the result is for
//	ints       16 × i64: AnalysisNS, FileSize, FileEffective,
//	           FileEffectiveAfter, CPUSize, CPUSizeAfter, FuncCount,
//	           FuncKept, GPUSize, GPUSizeAfter, ElemCount, ElemKept,
//	           RemovedArchMismatch, RemovedNoUsedKernel, ResidentBytes,
//	           ResidentBytesAfter
//	name       uvarint length, bytes
//	usedFuncs  uvarint count, (uvarint length, bytes) × count
//	usedKernels  same
//	sparse     the v2 range-set frame (EncodeWire) to the end of the record
//
// The digest sits at a fixed offset, so RecordLibDigest finds the image a
// record needs without decoding it. Integers are little-endian; every
// uvarint is in canonical form, so an accepted record re-encodes to the
// same bytes.
const (
	recordMagic   uint32 = 0x3143524e // "NRC1" little-endian
	recordVersion uint16 = 1
	recordInts           = 16
	// recordHeaderSize is the fixed part: magic, version, flags, digest
	// and the integers.
	recordHeaderSize = 8 + sha256.Size + 8*recordInts
)

// EncodeRecord serializes one locate+compact result in the record format.
func EncodeRecord(ld *LibDebloat) ([]byte, error) {
	if ld == nil || ld.Report == nil || ld.Report.Sparse == nil {
		return nil, errors.New("negativa: record: result has no sparse image")
	}
	lr := ld.Report
	frame := lr.Sparse.EncodeWire()
	n := recordHeaderSize + 3*binary.MaxVarintLen64 + len(lr.Name) + len(frame)
	for _, s := range lr.UsedFuncs {
		n += binary.MaxVarintLen64 + len(s)
	}
	for _, s := range lr.UsedKernels {
		n += binary.MaxVarintLen64 + len(s)
	}
	buf := make([]byte, recordHeaderSize, n)
	le := binary.LittleEndian
	le.PutUint32(buf[0:], recordMagic)
	le.PutUint16(buf[4:], recordVersion)
	d := lr.Sparse.Lib().ContentDigest()
	copy(buf[8:], d[:])
	for i, v := range [recordInts]int64{
		int64(ld.Analysis), lr.FileSize, lr.FileEffective, lr.FileEffectiveAfter,
		lr.CPUSize, lr.CPUSizeAfter, int64(lr.FuncCount), int64(lr.FuncKept),
		lr.GPUSize, lr.GPUSizeAfter, int64(lr.ElemCount), int64(lr.ElemKept),
		int64(lr.RemovedArchMismatch), int64(lr.RemovedNoUsedKernel),
		lr.ResidentBytes, lr.ResidentBytesAfter,
	} {
		le.PutUint64(buf[8+sha256.Size+8*i:], uint64(v))
	}
	buf = appendString(buf, lr.Name)
	for _, list := range [2][]string{lr.UsedFuncs, lr.UsedKernels} {
		buf = binary.AppendUvarint(buf, uint64(len(list)))
		for _, s := range list {
			buf = appendString(buf, s)
		}
	}
	return append(buf, frame...), nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// RecordLibDigest returns the library digest a record was computed for,
// read from its fixed header; ok is false for bytes that are not a record.
func RecordLibDigest(data []byte) (d [sha256.Size]byte, ok bool) {
	if recordHeaderCheck(data) != nil {
		return d, false
	}
	copy(d[:], data[8:])
	return d, true
}

func recordHeaderCheck(data []byte) error {
	le := binary.LittleEndian
	if len(data) < recordHeaderSize {
		return fmt.Errorf("negativa: record: truncated header (%d bytes)", len(data))
	}
	if m := le.Uint32(data); m != recordMagic {
		return fmt.Errorf("negativa: record: bad magic %#x", m)
	}
	if v := le.Uint16(data[4:]); v != recordVersion {
		return fmt.Errorf("negativa: record: unsupported version %d", v)
	}
	if fl := le.Uint16(data[6:]); fl != 0 {
		return fmt.Errorf("negativa: record: reserved flags %#x set", fl)
	}
	return nil
}

// DecodeRecord rebuilds a locate+compact result from its record against
// the live library. Corrupt input — bad magic or version, truncation, a
// length or count past the end, a digest or size that does not match lib,
// a malformed range set, trailing bytes — is an error, never a panic: the
// decoder is a fuzz target, and stored and peer-sent bytes are untrusted.
func DecodeRecord(lib *elfx.Library, data []byte) (*LibDebloat, error) {
	if lib == nil {
		return nil, errors.New("negativa: record: no library to decode against")
	}
	if err := recordHeaderCheck(data); err != nil {
		return nil, err
	}
	d := lib.ContentDigest()
	if !bytes.Equal(data[8:8+sha256.Size], d[:]) {
		return nil, errors.New("negativa: record: library digest mismatch")
	}
	var v [recordInts]int64
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(data[8+sha256.Size+8*i:]))
	}
	// One string copy backs the name and every symbol: each is a substring
	// of it (the copy also spans the range frame, which is decoded from
	// data and never read through s).
	r := recordReader{b: data[recordHeaderSize:], s: string(data[recordHeaderSize:])}
	name := r.str()
	funcs := r.strs()
	kernels := r.strs()
	if r.err != nil {
		return nil, r.err
	}
	frame := r.b[r.off:]
	if SparseWireVersion(frame) != 2 {
		return nil, errors.New("negativa: record: range set is not a v2 frame")
	}
	sparse, err := decodeWireV2(lib, frame)
	if err != nil {
		return nil, err
	}
	return &LibDebloat{
		Analysis: time.Duration(v[0]),
		Report: &LibraryReport{
			Name:     name,
			FileSize: v[1], FileEffective: v[2], FileEffectiveAfter: v[3],
			CPUSize: v[4], CPUSizeAfter: v[5], FuncCount: int(v[6]), FuncKept: int(v[7]),
			GPUSize: v[8], GPUSizeAfter: v[9], ElemCount: int(v[10]), ElemKept: int(v[11]),
			RemovedArchMismatch: int(v[12]), RemovedNoUsedKernel: int(v[13]),
			ResidentBytes: v[14], ResidentBytesAfter: v[15],
			UsedFuncs: funcs, UsedKernels: kernels,
			Sparse: sparse,
		},
	}, nil
}

// recordReader walks a record's variable part: lengths are read from b,
// strings sliced from s, its copy. The first error sticks and every later
// read returns zero values.
type recordReader struct {
	b   []byte
	s   string
	off int
	err error
}

func (r *recordReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++ // the common one-byte form
		return uint64(r.b[r.off-1])
	}
	v, w := uvarint(r.b[r.off:])
	if w <= 0 {
		r.fail(what)
		return 0
	}
	r.off += w
	return v
}

// bytes reads one length-prefixed string as a slice of b, without the
// copy str slices from.
func (r *recordReader) bytes() []byte {
	n := r.uvarint("string length")
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("negativa: record: %d-byte string past the end", n)
		return nil
	}
	r.off += int(n)
	return r.b[r.off-int(n) : r.off]
}

func (r *recordReader) str() string {
	b := r.bytes()
	if r.err != nil {
		return ""
	}
	return r.s[r.off-len(b) : r.off]
}

// fail records a malformed field unless an earlier error stands.
func (r *recordReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("negativa: record: malformed %s", what)
	}
}

// u64 reads one fixed-width little-endian integer.
func (r *recordReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.err = errors.New("negativa: record: truncated integer")
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

func (r *recordReader) strs() []string {
	n := r.uvarint("list count")
	if r.err != nil || n == 0 {
		return nil
	}
	// Each string needs at least its length byte, so an honest count never
	// exceeds what is left and a hostile one cannot provision a huge slice.
	if n > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("negativa: record: %d strings declared past the end", n)
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}
