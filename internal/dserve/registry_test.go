package dserve

import (
	"slices"
	"sync"
	"testing"

	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

// Shared small install for the package's pipeline-level tests; generated
// once (Install values are immutable and safe to share).
var (
	tiOnce sync.Once
	tiInst *mlframework.Install
	tiErr  error
)

func testInstall(t *testing.T) *mlframework.Install {
	t.Helper()
	tiOnce.Do(func() {
		tiInst, tiErr = mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 6})
	})
	if tiErr != nil {
		t.Fatal(tiErr)
	}
	return tiInst
}

// testWorkloads builds the canonical 4-member batch over one install: CV
// and NLP models, training and inference, T4 and A100 devices.
func testWorkloads(t testing.TB, in *mlframework.Install) []mlruntime.Workload {
	t.Helper()
	// Batch sizes match the kernel universe the synthetic installs ship
	// (the Table 1 configurations).
	specs := []WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
		{Model: "Transformer", Batch: 32, Device: "A100"},
		{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
	}
	ws := make([]mlruntime.Workload, len(specs))
	for i, sp := range specs {
		w, err := sp.Workload(in)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

func TestInstallFingerprint(t *testing.T) {
	in := testInstall(t)
	fp1 := negativa.InstallFingerprint(in)
	fp2 := negativa.InstallFingerprint(in)
	if fp1 != fp2 || len(fp1) != 64 {
		t.Fatalf("fingerprint unstable or malformed: %q vs %q", fp1, fp2)
	}
	other, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if negativa.InstallFingerprint(other) == fp1 {
		t.Error("different installs must fingerprint differently")
	}
}

func TestRegistryPutGetUnion(t *testing.T) {
	m := NewStageMemo(NewResultCache(1<<20, nil), nil)
	a := &negativa.Profile{Workload: "a", UsedKernels: map[string][]string{"l": {"k1"}}, UsedFuncs: map[string][]string{"l": {"f1"}}}
	b := &negativa.Profile{Workload: "b", UsedKernels: map[string][]string{"l": {"k2"}}, UsedFuncs: map[string][]string{"l": {"f2"}}}
	st := memoStageOf(negativa.StageDetect)
	m.cache.put(st.stage, negativa.DetectKey("fp", "a").Hash, a)
	m.cache.put(st.stage, negativa.DetectKey("fp", "b").Hash, b)
	if n := m.cache.StageStats(st.stage).Entries; n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	ga, ok := m.cache.get(st.stage, negativa.DetectKey("fp", "a").Hash)
	if !ok || ga != a {
		t.Fatal("get must return the stored profile")
	}
	if m.cache.contains(st.stage, negativa.DetectKey("other", "a").Hash) {
		t.Fatal("profiles are scoped to their install fingerprint")
	}

	gb, _ := m.cache.get(st.stage, negativa.DetectKey("fp", "b").Hash)
	if u := negativa.MergeProfiles(ga.(*negativa.Profile), gb.(*negativa.Profile)); !covers(u, a) || !covers(u, b) {
		t.Error("union must cover every member")
	}
}

// BenchmarkUnion is the microbenchmark of a union miss — a batch whose
// member order the union tier does not hold, or a node that has not seen
// it: the merge of the four CV/NLP members' profiles at 4 steps, for the
// two Table-1 shapes with the most libraries.
func BenchmarkUnion(b *testing.B) {
	for _, shape := range []struct {
		name      string
		framework string
		tail      int
	}{
		{"pytorch141", mlframework.PyTorch, 141},
		{"tensorflow388", mlframework.TensorFlow, 388},
	} {
		b.Run(shape.name, func(b *testing.B) {
			in, err := mlframework.Generate(mlframework.Config{Framework: shape.framework, TailLibs: shape.tail})
			if err != nil {
				b.Fatal(err)
			}
			ws := testWorkloads(b, in)
			ps := make([]*negativa.Profile, len(ws))
			for i, w := range ws {
				if ps[i], err = negativa.DetectUsage(w, 4); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if negativa.MergeProfiles(ps...) == nil {
					b.Fatal("no union")
				}
			}
		})
	}
}

// BenchmarkWarmBatch is a warm batch end to end on this layer: the four
// CV/NLP members of pytorch141 at 4 steps, resubmitted to an in-memory
// service that has served them once, so every detect, union, compact and
// verifyrun node is a memory hit and what is timed is dispatch, memo probes
// and assembly. plan's BenchmarkNoopDAG cannot stand in for it: a
// no-op node never grows its goroutine's stack, and a compact node's key
// path (LocateKey → ContentDigest → SHA-256) does, once per goroutine.
func BenchmarkWarmBatch(b *testing.B) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 141})
	if err != nil {
		b.Fatal(err)
	}
	ws := testWorkloads(b, in)
	svc := NewService(Config{MaxSteps: 4})
	defer svc.Close()
	if _, err := svc.DebloatBatch(in, ws, BatchOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.DebloatBatch(in, ws, BatchOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// covers reports whether union u keeps every symbol profile p uses.
func covers(u, p *negativa.Profile) bool {
	for _, pair := range [][2]map[string][]string{{u.UsedKernels, p.UsedKernels}, {u.UsedFuncs, p.UsedFuncs}} {
		for lib, syms := range pair[1] {
			for _, s := range syms {
				if !slices.Contains(pair[0][lib], s) {
					return false
				}
			}
		}
	}
	return true
}

// TestUnionDebloatServesEveryMember is the union-semantics core: an install
// debloated against the union of N workload profiles must reproduce each
// member workload's original output digest.
func TestUnionDebloatServesEveryMember(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	const steps = 2

	m := NewStageMemo(NewResultCache(1<<20, nil), nil)
	fp := negativa.InstallFingerprint(in)
	ids := make([]string, len(ws))
	digests := make([]uint64, len(ws))
	for i, w := range ws {
		p, err := negativa.DetectUsage(w, steps)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = negativa.WorkloadIdentity(w, steps)
		digests[i] = p.RunResult.Digest
		m.cache.put(negativa.StageDetect, negativa.DetectKey(fp, ids[i]).Hash, p)
	}

	stored := make([]*negativa.Profile, len(ws))
	for i := range ws {
		p, ok := m.cache.get(negativa.StageDetect, negativa.DetectKey(fp, ids[i]).Hash)
		if !ok {
			t.Fatalf("no stored profile for member %s", ws[i].Name)
		}
		stored[i] = p.(*negativa.Profile)
	}
	union := negativa.MergeProfiles(stored...)
	for i, p := range stored {
		if !covers(union, p) {
			t.Fatalf("union does not cover member %s", ws[i].Name)
		}
	}

	// Debloat against the union with the union of device archs.
	var allDevs []gpuarch.Device
	for _, w := range ws {
		allDevs = append(allDevs, w.Devices...)
	}
	archs := negativa.DeviceArchs(allDevs)
	debloated := map[string][]byte{}
	for _, name := range in.LibNames {
		ld, err := negativa.LocateAndCompactLib(in.Library(name), union.UsedFuncs[name], union.UsedKernels[name], archs)
		if err != nil {
			t.Fatal(err)
		}
		debloated[name] = ld.Report.Debloated()
	}
	clone, err := in.CloneWithLibs(debloated)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		w.Install = clone
		vr, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: steps})
		if err != nil {
			t.Fatalf("member %s failed on union-debloated install: %v", w.Name, err)
		}
		if vr.Digest != digests[i] {
			t.Errorf("member %s digest = %x, want %x", w.Name, vr.Digest, digests[i])
		}
	}
}
