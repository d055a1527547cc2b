package negativa

import (
	"encoding/json"
	"runtime"
	"testing"

	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
)

// heapPer returns the heap n values built by mk retain, per value: the heap
// in use after a GC with the values alive, less the heap in use after a GC
// before they were built. What mk leaves behind besides its value is
// garbage by the second GC; one value built first, and dropped, keeps what
// mk builds once and shares (a library's index) out of the count.
func heapPer(n int, mk func() any) float64 {
	mk()
	vals := make([]any, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range vals {
		vals[i] = mk()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(vals)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestRetainedBytesModelsTheHeap holds each cost model a byte-bounded cache
// charges with to the heap its values retain when decoded from records:
// the model must be within a factor of 2 of the measured heap, either way.
// A union has no record; it is merged from member profiles decoded from
// theirs, every compact key derived, and the members dropped, so what is
// measured is all it can keep alive alone.
func TestRetainedBytesModelsTheHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles four workloads")
	}
	const factor = 2.0
	ws := goldenMembers(t, mlframework.PyTorch)
	in := ws[0].Install
	var recs [][]byte
	var archs []gpuarch.SM
	for _, w := range ws {
		p, err := DetectUsage(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := EncodeProfile(p)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		for _, d := range w.Devices {
			archs = append(archs, d.Arch)
		}
	}
	decodeProfile := func(rec []byte) *Profile {
		p, err := DecodeProfile(rec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ld := recordFixture(t)
	lib := ld.Report.Sparse.Lib()
	ldRec, err := EncodeRecord(ld)
	if err != nil {
		t.Fatal(err)
	}
	runRec, err := json.Marshal(decodeProfile(recs[0]).RunResult)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		n    int // values enough to rise above the heap's noise
		mk   func() any
		cost func(v any) int64
	}{
		{"profile", 64,
			func() any { return decodeProfile(recs[0]) },
			func(v any) int64 { return v.(*Profile).RetainedBytes() }},
		{"union", 32,
			func() any {
				ps := make([]*Profile, len(recs))
				for i, rec := range recs {
					ps[i] = decodeProfile(rec)
				}
				u := newUnion(ps, len(in.LibNames))
				for i, name := range in.LibNames {
					u.compactKey(i, name, in.Library(name), archs)
				}
				return u
			},
			func(v any) int64 { return v.(*Union).RetainedBytes() }},
		{"run result", 1 << 16,
			func() any {
				var r *mlruntime.Result
				if err := json.Unmarshal(runRec, &r); err != nil {
					t.Fatal(err)
				}
				return r
			},
			func(v any) int64 { return v.(*mlruntime.Result).RetainedBytes() }},
		{"compact result", 64,
			func() any {
				v, err := DecodeRecord(lib, ldRec)
				if err != nil {
					t.Fatal(err)
				}
				return v
			},
			func(v any) int64 { return v.(*LibDebloat).Report.RetainedBytes() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap := heapPer(tc.n, tc.mk)
			model := float64(tc.cost(tc.mk()))
			t.Logf("model %.0f B, heap %.0f B per value (%.2f×)", model, heap, model/heap)
			if model > factor*heap || heap > factor*model {
				t.Fatalf("model %.0f B is not within %.0f× of the %.0f B a decoded value retains", model, factor, heap)
			}
		})
	}
}
