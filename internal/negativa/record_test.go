package negativa

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"negativaml/internal/fatbin"
	"negativaml/internal/mlframework"
)

// recordFixture is one real locate+compact result over the codec library.
func recordFixture(t testing.TB) *LibDebloat {
	t.Helper()
	lib := codecLib(t)
	funcs, kernels, archs := usedSubsets(lib)
	ld, err := LocateAndCompactLib(lib, funcs, kernels, archs)
	if err != nil {
		t.Fatal(err)
	}
	ld.Analysis = 12345
	return ld
}

// TestRecordRoundTrip: every report field, the analysis time and the
// range set survive a record round trip, and the digest is readable from
// the header alone.
func TestRecordRoundTrip(t *testing.T) {
	ld := recordFixture(t)
	if len(ld.Report.UsedFuncs) == 0 || len(ld.Report.Sparse.ZeroedRanges()) == 0 {
		t.Fatal("fixture exercises no symbols or ranges")
	}
	rec, err := EncodeRecord(ld)
	if err != nil {
		t.Fatal(err)
	}
	lib := ld.Report.Sparse.Lib()
	got, err := DecodeRecord(lib, rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Analysis != ld.Analysis {
		t.Errorf("analysis %v, want %v", got.Analysis, ld.Analysis)
	}
	want, have := *ld.Report, *got.Report
	want.Sparse, have.Sparse = nil, nil
	if !reflect.DeepEqual(have, want) {
		t.Errorf("report differs after a round trip:\n got %+v\nwant %+v", have, want)
	}
	if !bytes.Equal(got.Report.Sparse.Materialize(), ld.Report.Sparse.Materialize()) {
		t.Error("range set differs after a round trip")
	}
}

// TestDecodeRecordRejects: each way a record can be corrupt or meant for
// other bytes is an error.
func TestDecodeRecordRejects(t *testing.T) {
	ld := recordFixture(t)
	lib := ld.Report.Sparse.Lib()
	good, err := EncodeRecord(ld)
	if err != nil {
		t.Fatal(err)
	}
	set := func(off int, b ...byte) []byte {
		out := bytes.Clone(good)
		copy(out[off:], b)
		return out
	}
	// The name's length is the first byte after the header (names are
	// shorter than 128 bytes).
	nameLen := int(good[recordHeaderSize])
	funcsAt := recordHeaderSize + 1 + nameLen
	other, err := mlframework.Generate(mlframework.Config{Framework: mlframework.TensorFlow, TailLibs: 1})
	if err != nil {
		t.Fatal(err)
	}
	v1 := append(bytes.Clone(good[:len(good)-len(ld.Report.Sparse.EncodeWire())]), ld.Report.Sparse.Encode()...)
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"truncated header", good[:recordHeaderSize-1], "truncated"},
		{"bad magic", set(0, 'X'), "magic"},
		{"bad version", set(4, 9), "version"},
		{"flags", set(6, 1), "flags"},
		{"digest mismatch", set(8, good[8]^0xff), "digest"},
		{"name past the end", set(recordHeaderSize, 0xff, 0xff, 0xff, 0x0f), "past the end"},
		{"count past the end", set(funcsAt, 0xff, 0xff, 0x03), "past the end"},
		{"non-canonical count", set(funcsAt, 0x80|good[funcsAt], 0x00), "malformed"},
		{"truncated in the lists", good[:funcsAt+2], ""},
		{"truncated range set", good[:len(good)-1], ""},
		{"trailing bytes", append(bytes.Clone(good), 0), "trailing"},
		{"v1 range set", v1, "v2"},
	} {
		if _, err := DecodeRecord(lib, tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	if _, err := DecodeRecord(other.Library(other.LibNames[0]), good); err == nil {
		t.Error("a record decoded against a different library")
	}
	if _, err := DecodeRecord(nil, good); err == nil {
		t.Error("a record decoded against no library")
	}
	if _, err := EncodeRecord(&LibDebloat{Report: &LibraryReport{Name: "x"}}); err == nil {
		t.Error("a result with no range set encoded")
	}
}

// FuzzDecodeRecord mutates records: the decoder must never panic, and
// anything it accepts must re-encode to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 1})
	if err != nil {
		f.Fatal(err)
	}
	lib := in.Library(in.LibNames[0])
	for _, ld := range []*LibDebloat{
		{Analysis: 7, Report: &LibraryReport{Name: lib.Name, FileSize: 1, UsedFuncs: []string{"a", "bc"}, UsedKernels: []string{"k"},
			Sparse: NewSparseImage(lib, []fatbin.Range{{Start: 100, End: 2000}})}},
		{Report: &LibraryReport{Sparse: NewSparseImage(lib, nil)}},
	} {
		rec, err := EncodeRecord(ld)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, recordMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		ld, err := DecodeRecord(lib, data)
		if err != nil {
			return
		}
		again, err := EncodeRecord(ld)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted record re-encodes to different bytes")
		}
	})
}
