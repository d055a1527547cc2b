package negativa

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/models"
)

// TestProfileRecordRoundTrip: a detected profile survives a record round
// trip field for field, the encoder's buffer is sized exactly, and the key
// is readable from the head alone.
func TestProfileRecordRoundTrip(t *testing.T) {
	p, err := DetectUsage(mobilenetTrain(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.UsedKernels) == 0 || len(p.UsedFuncs) == 0 {
		t.Fatal("fixture profile uses no symbols")
	}
	rec, err := EncodeProfile("fp", "wid", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != cap(rec) {
		t.Errorf("encoder sized %d bytes for a %d-byte record", cap(rec), len(rec))
	}
	got, err := DecodeProfile(rec, "fp", "wid")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Errorf("profile differs after a round trip:\n got %+v\nwant %+v", got, p)
	}
	if fp, wid, ok := ProfileRecordKey(rec); !ok || fp != "fp" || wid != "wid" {
		t.Errorf("ProfileRecordKey = %q, %q, %v", fp, wid, ok)
	}
	if _, err := EncodeProfile("fp", "wid", &Profile{}); err == nil {
		t.Error("a profile without a run result encoded")
	}
}

// TestDecodeProfileRejects: a record asked for under another key, with a
// byte appended or cut, or front-coded other than the one way the encoder
// writes is an error.
func TestDecodeProfileRejects(t *testing.T) {
	p := &Profile{
		Workload:    "w",
		UsedKernels: map[string][]string{"liba": {"k1", "k2"}, "libb": {"k3"}},
		UsedFuncs:   map[string][]string{"liba": {"f"}},
		RunResult:   &mlruntime.Result{Digest: 42, ExecTime: time.Second, Steps: 3, Launches: 9},
	}
	rec, err := EncodeProfile("fp", "wid", p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeProfile(rec, "fp", "other"); err == nil {
		t.Error("a record decoded under another workload identity")
	}
	if _, err := DecodeProfile(rec, "other", "wid"); err == nil {
		t.Error("a record decoded under another install")
	}
	if _, err := DecodeProfile(append(bytes.Clone(rec), 0), "fp", "wid"); err == nil {
		t.Error("trailing bytes accepted")
	}
	for n := 0; n < len(rec); n++ {
		if _, err := DecodeProfile(rec[:n], "fp", "wid"); err == nil {
			t.Fatalf("a record cut to %d of %d bytes decoded", n, len(rec))
		}
	}
	// The kernel section front-codes "libb" after "liba" as (3, "b") and
	// "k2" after "k1" as (1, "2"). Each mutation below decodes to
	// well-formed strings, and each breaks one rule an accepted record
	// keeps.
	for _, m := range []struct{ what, from, to string }{
		{"a repeated library name", "\x03\x01b", "\x03\x01a"},
		{"a shorter shared prefix than the longest", "\x01\x012", "\x00\x02k2"},
		{"a shared prefix longer than the previous string", "\x01\x012", "\x03\x012"},
	} {
		bad := bytes.Replace(rec, []byte(m.from), []byte(m.to), 1)
		if bytes.Equal(bad, rec) {
			t.Fatalf("%s: the mutation changed nothing", m.what)
		}
		if _, err := DecodeProfile(bad, "fp", "wid"); err == nil {
			t.Errorf("%s accepted", m.what)
		}
	}
	if _, _, ok := ProfileRecordKey(rec[:9]); ok {
		t.Error("ProfileRecordKey accepted a truncated key")
	}
}

// FuzzDecodeProfile mutates profile records: the decoder must never panic,
// and anything it accepts must re-encode to the same bytes.
func FuzzDecodeProfile(f *testing.F) {
	for _, p := range []*Profile{
		{Workload: "w", UsedKernels: map[string][]string{"liba": {"k1", "k2"}, "libb": nil},
			UsedFuncs: map[string][]string{"liba": {"f"}}, RunResult: &mlruntime.Result{Digest: 1 << 63, ExecTime: -1, Steps: 2}},
		{RunResult: &mlruntime.Result{}},
	} {
		rec, err := EncodeProfile("fp", "wid", p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, profileMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		fp, wid, ok := ProfileRecordKey(data)
		p, err := DecodeProfile(data, fp, wid)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("a record decoded whose key ProfileRecordKey could not read")
		}
		again, err := EncodeProfile(fp, wid, p)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted record re-encodes to different bytes")
		}
	})
}

// BenchmarkProfileDecode decodes the records of the four CV/NLP members of
// pytorch141 detected at 4 steps, all four per op: what a reopened node
// pays to read its batch's profiles from disk.
func BenchmarkProfileDecode(b *testing.B) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 141})
	if err != nil {
		b.Fatal(err)
	}
	member := func(g *models.Graph, dev gpuarch.Device, data dataset.Dataset) mlruntime.Workload {
		return mlruntime.Workload{Name: g.Mode(), Install: in, Graph: g, Devices: []gpuarch.Device{dev},
			Mode: cudasim.EagerLoading, Data: data, Epochs: 1, PerItemCompute: time.Millisecond}
	}
	var recs [][]byte
	size := 0
	for _, w := range []mlruntime.Workload{
		member(models.MobileNetV2(false, 1), gpuarch.T4, dataset.CIFAR10),
		member(models.MobileNetV2(true, 16), gpuarch.T4, dataset.CIFAR10),
		member(models.Transformer(false, 32), gpuarch.A100, dataset.Multi30k),
		member(models.Transformer(true, 128), gpuarch.T4, dataset.Multi30k),
	} {
		p, err := DetectUsage(w, 4)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := EncodeProfile("fp", "wid", p)
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
		size += len(rec)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			if _, err := DecodeProfile(rec, "fp", "wid"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(size)/float64(len(recs)), "B/profile")
}
