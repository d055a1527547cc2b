package negativa

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"negativaml/internal/bufpool"
	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/models"
	"negativaml/internal/plan"
)

// goldenMembers builds a batch per framework fixture: the golden workload
// plus members on other models, modes and devices — every one a Table-1
// configuration the synthetic install ships kernels for.
func goldenMembers(t *testing.T, fw string) []mlruntime.Workload {
	t.Helper()
	first := goldenWorkload(t, fw)
	member := func(name string, g *models.Graph, data dataset.Dataset, dev gpuarch.Device) mlruntime.Workload {
		w := first
		w.Name, w.Graph, w.Data, w.Devices = fw+"/"+name, g, data, []gpuarch.Device{dev}
		return w
	}
	switch fw {
	case mlframework.PyTorch:
		return []mlruntime.Workload{first,
			member("mbv2-b1", models.MobileNetV2(false, 1), dataset.CIFAR10, gpuarch.T4),
			member("tf-b32", models.Transformer(false, 32), dataset.Multi30k, gpuarch.A100),
			member("tf-train-b128", models.Transformer(true, 128), dataset.Multi30k, gpuarch.T4),
		}
	case mlframework.TensorFlow:
		return []mlruntime.Workload{first,
			member("mbv2-train-b16", models.MobileNetV2(true, 16), dataset.CIFAR10, gpuarch.T4),
			member("tf-b32", models.Transformer(false, 32), dataset.Multi30k, gpuarch.A100),
		}
	}
	return []mlruntime.Workload{first, member("llama-a100", first.Graph, first.Data, gpuarch.A100)}
}

// serialBatch is the batch written out as the paper's steps, one after the
// other: detect every member, merge the profiles, locate and compact every
// library against the union for the union of the members' architectures,
// then run every member on one clone of the debloated install.
func serialBatch(t *testing.T, ws []mlruntime.Workload, maxSteps int) (union *Profile, reports []*LibraryReport, verified []bool) {
	t.Helper()
	in := ws[0].Install
	profiles := make([]*Profile, len(ws))
	var devs []gpuarch.Device
	for i, w := range ws {
		p, err := DetectUsage(w, maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		profiles[i] = p
		devs = append(devs, w.Devices...)
	}
	union = MergeProfiles(profiles...)
	archs := DeviceArchs(devs)
	debloated := map[string][]byte{}
	for _, name := range in.LibNames {
		ld, err := LocateAndCompactLib(in.Library(name), union.UsedFuncs[name], union.UsedKernels[name], archs)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, ld.Report)
		debloated[name] = ld.Report.Debloated()
	}
	clone, err := in.CloneWithLibs(debloated)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		w.Install = clone
		vr, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: maxSteps})
		if err != nil {
			t.Fatal(err)
		}
		verified = append(verified, vr.Digest == profiles[i].RunResult.Digest)
	}
	return union, reports, verified
}

// equalBatch asserts a batch's reports, images and verification outcomes are
// those of the serial reference; verify marks the members the batch verified.
func equalBatch(t *testing.T, label string, run *BatchRun, union *Profile, reports []*LibraryReport, verified, verify []bool) {
	t.Helper()
	if !reflect.DeepEqual(run.Union(), union) {
		t.Fatalf("%s: unions diverge", label)
	}
	for i, want := range reports {
		got, _, _, _ := run.Lib(i)
		gotCopy, wantCopy := *got, *want
		gotCopy.Sparse, wantCopy.Sparse = nil, nil
		if !reflect.DeepEqual(gotCopy, wantCopy) {
			t.Fatalf("%s: report %s diverges:\nserial: %+v\nbatch:  %+v", label, want.Name, wantCopy, gotCopy)
		}
		if !bytes.Equal(got.Debloated(), want.Debloated()) {
			t.Fatalf("%s: %s debloated bytes diverge", label, want.Name)
		}
	}
	for i := range verified {
		vr, ok := run.Verify(i)
		if !verify[i] {
			if vr != nil || ok {
				t.Fatalf("%s: member %d was not to be verified", label, i)
			}
			continue
		}
		if ok != verified[i] {
			t.Fatalf("%s: member %d verified %v, serial reference %v", label, i, ok, verified[i])
		}
	}
}

// TestGoldenBatchMatchesMonolith holds the batch graph at N members to the
// serial reference, for every framework fixture, on one worker and on four
// (the clone is then split), with every member verified and with the first
// left out.
func TestGoldenBatchMatchesMonolith(t *testing.T) {
	const maxSteps = 2
	for _, fw := range []string{mlframework.PyTorch, mlframework.TensorFlow, mlframework.VLLM, mlframework.HFTransformers} {
		ws := goldenMembers(t, fw)
		union, reports, verified := serialBatch(t, ws, maxSteps)
		all, allButFirst := make([]bool, len(ws)), make([]bool, len(ws))
		for i := range ws {
			all[i], allButFirst[i] = true, i > 0
		}
		for _, workers := range []int{1, 4} {
			for _, verify := range [][]bool{all, allButFirst} {
				label := fmt.Sprintf("%s/%d members/%d workers/verify %v", fw, len(ws), workers, verify)
				b := NewBatch(ws[0].Install, ws, maxSteps)
				b.Verify = verify
				run, err := b.Run(plan.NewPool(workers), newMapMemo(), nil, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				equalBatch(t, label, run, union, reports, verified, verify)
			}
		}
	}
}

// prefetchCall is one call of a recording Prefetch hook.
type prefetchCall struct {
	keys  []plan.Key
	hints []any
}

// TestBatchHooks: the hooks see each level's keys in order — the detect keys,
// then every compact key with its library as the hint, then the verifyrun
// keys, the last only when every compact hit — the verify probe asks once
// per verified member, each compact node reaches the memo with its library
// as the hint, and a hooked batch produces exactly what an unhooked one does.
func TestBatchHooks(t *testing.T) {
	ws := goldenMembers(t, mlframework.PyTorch)[:3]
	in := ws[0].Install
	verify := []bool{true, false, true}
	plain := NewBatch(in, ws, 2)
	plain.Verify = verify
	want, err := plain.Run(plan.NewPool(2), newMapMemo(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	memo := &hintMemo{Memo: newMapMemo(), hints: map[plan.Key]any{}}
	for _, pass := range []string{"cold", "warm"} {
		var calls []prefetchCall
		probed := 0
		b := NewBatch(in, ws, 2)
		b.Verify = verify
		b.Prefetch = func(slot plan.Executor, keys []plan.Key, hints []any) {
			if slot == nil {
				t.Errorf("%s: prefetch handed no executor", pass)
			}
			calls = append(calls, prefetchCall{keys, hints})
		}
		b.ProbeVerify = func(k plan.Key) bool {
			if k.Stage != StageVerifyRun {
				t.Errorf("%s: probed a %s key", pass, k.Stage)
			}
			probed++
			return false
		}
		run, err := b.Run(plan.NewPool(2), memo, nil, nil)
		if err != nil {
			t.Fatal(err)
		}

		wantCalls := map[string]int{"cold": 2, "warm": 3}[pass]
		if len(calls) != wantCalls {
			t.Fatalf("%s: prefetch called %d times, want %d", pass, len(calls), wantCalls)
		}
		for i := range ws {
			if k := DetectKey(b.Fingerprint, b.IDs[i]); calls[0].keys[i] != k || calls[0].hints != nil {
				t.Fatalf("%s: first prefetch %+v, want the detect keys", pass, calls[0])
			}
		}
		for i, name := range in.LibNames {
			_, _, hash, _ := run.Lib(i)
			if k := calls[1].keys[i]; k != (plan.Key{Stage: StageCompact, Hash: hash}) {
				t.Fatalf("%s: compact prefetch key %d is %v, the node resolved %s", pass, i, k, hash)
			}
			if lib, _ := calls[1].hints[i].(*elfx.Library); lib != in.Library(name) {
				t.Fatalf("%s: compact prefetch hint %d is not %s's library", pass, i, name)
			}
			if lib, _ := memo.hint(calls[1].keys[i]).(*elfx.Library); lib != in.Library(name) {
				t.Errorf("%s: compact %d reached the memo without %s's library", pass, i, name)
			}
		}
		if pass == "warm" {
			if len(calls[2].keys) != 2 || calls[2].keys[0].Stage != StageVerifyRun || calls[2].keys[0] == calls[2].keys[1] {
				t.Fatalf("warm: last prefetch %v, want the two verified members' verifyrun keys", calls[2].keys)
			}
		}
		if probed != 2 {
			t.Errorf("%s: verify probe asked %d times, want once per verified member", pass, probed)
		}

		var reports []*LibraryReport
		for i := range in.LibNames {
			rep, _, _, _ := want.Lib(i)
			reports = append(reports, rep)
		}
		verified := make([]bool, len(ws))
		for i := range ws {
			_, verified[i] = want.Verify(i)
		}
		equalBatch(t, pass, run, want.Union(), reports, verified, verify)
	}
}

// TestBatchVerifiesProbedRecords: records the verify probe reports found
// skip the clone, and the memo answers each, judged against its member's
// reference digest like a run — a record of a different output does not
// verify. A memo that computes a key its probe reported found fails the
// batch rather than run against a clone that was never built.
func TestBatchVerifiesProbedRecords(t *testing.T) {
	ws := goldenMembers(t, mlframework.TensorFlow)[:2]
	in := ws[0].Install
	first := NewBatch(in, ws, 2)
	first.Verify = []bool{true, true}
	ran, err := first.Run(plan.NewPool(2), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := newMapMemo()
	for i := range ws {
		vr, ok := ran.Verify(i)
		if !ok || !ran.Cloned() {
			t.Fatalf("member %d of the first batch: verified %v, cloned %v", i, ok, ran.Cloned())
		}
		if i == 0 {
			wrong := *vr
			wrong.Digest++
			vr = &wrong
		}
		records.vals[ran.verifies[i].ResolvedKey()] = vr
	}

	b := NewBatch(in, ws, 2)
	b.Verify = []bool{true, true}
	b.ProbeVerify = func(k plan.Key) bool {
		_, ok := records.vals[k]
		return ok
	}
	run, err := b.Run(plan.NewPool(2), records, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Cloned() {
		t.Error("the batch built a clone though the probe answered every member")
	}
	if _, ok := run.Verify(0); ok {
		t.Error("a record of a different output verified")
	}
	if _, ok := run.Verify(1); !ok {
		t.Error("the member's own record did not verify")
	}

	lying := NewBatch(in, ws, 2)
	lying.Verify = []bool{true, true}
	lying.ProbeVerify = func(plan.Key) bool { return true }
	if _, err := lying.Run(plan.NewPool(2), newMapMemo(), nil, nil); err == nil || !strings.Contains(err.Error(), "probe reported found") {
		t.Fatalf("a memo that computed a key its probe reported found: err %v", err)
	}
}

// hintMemo records the hint each key reached the memo with.
type hintMemo struct {
	plan.Memo
	mu    sync.Mutex
	hints map[plan.Key]any
}

func (m *hintMemo) GetOrCompute(slot plan.Executor, key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	m.mu.Lock()
	m.hints[key] = hint
	m.mu.Unlock()
	return m.Memo.GetOrCompute(slot, key, hint, compute)
}

func (m *hintMemo) hint(k plan.Key) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hints[k]
}

// cloneGraph builds the verify clone over already-finished compact results:
// one trivial node per library standing in for its compact node.
func cloneGraph(in *mlframework.Install, images []*SparseImage, chunks int, bufs [][]byte) (*plan.Graph, *plan.Node) {
	g := plan.New()
	compacts := make([]*plan.Node, len(images))
	for i, sp := range images {
		ld := &LibDebloat{Report: &LibraryReport{Name: in.LibNames[i], Sparse: sp}}
		compacts[i] = g.Node(StageCompact, nil, nil, func([]any) (any, error) { return ld, nil })
	}
	probe := g.Node("verifyprobe", compacts, nil, func([]any) (any, error) { return &verifyProbe{needClone: true}, nil })
	return g, verifyClone(g, in, probe, compacts, chunks, bufs)
}

// TestVerifyCloneFailureNamesTheLibrary: a debloated image that no longer
// parses fails its chunk node, and through it the batch, with the library's
// name — whichever chunk it fell into.
func TestVerifyCloneFailureNamesTheLibrary(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 3} {
		victim := in.LibNames[len(in.LibNames)-2]
		images := make([]*SparseImage, len(in.LibNames))
		for i, name := range in.LibNames {
			var zeroed []fatbin.Range
			if name == victim {
				zeroed = []fatbin.Range{{Start: 0, End: 64}} // the ELF header
			}
			images[i] = NewSparseImage(in.Library(name), zeroed)
		}
		bufs := make([][]byte, len(images))
		g, _ := cloneGraph(in, images, chunks, bufs)
		err := g.Execute(plan.NewPool(chunks), nil, nil)
		for _, b := range bufs {
			bufpool.Put(b)
		}
		if err == nil || !strings.Contains(err.Error(), victim) {
			t.Errorf("%d chunks: error %v, want one naming %s", chunks, err, victim)
		}
	}
}

// BenchmarkVerifyClone is the microbenchmark of the verify clone: every
// debloated library of a Table-1-shaped install (pytorch141) materialized
// into pooled scratch and parsed, as a plan over GOMAXPROCS workers. Run with
// -cpu 1,2: one worker is one chunk, the serial loop.
func BenchmarkVerifyClone(b *testing.B) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 141})
	if err != nil {
		b.Fatal(err)
	}
	w := mlruntime.Workload{
		Name: "pytorch141/mbv2-b1", Install: in, Graph: models.MobileNetV2(false, 1),
		Devices: []gpuarch.Device{gpuarch.T4}, Mode: cudasim.EagerLoading,
		Data: dataset.CIFAR10, PerItemCompute: time.Millisecond,
	}
	workers := runtime.GOMAXPROCS(0)
	pool := plan.NewPool(workers)
	run, err := NewBatch(in, []mlruntime.Workload{w}, 2).Run(pool, nil, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	images := make([]*SparseImage, len(in.LibNames))
	for i := range images {
		rep, _, _, _ := run.Lib(i)
		images[i] = rep.Sparse
	}
	bufs := make([][]byte, len(images))
	b.SetBytes(in.TotalFileSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, clone := cloneGraph(in, images, workers, bufs)
		if err := g.Execute(pool, nil, nil); err != nil {
			b.Fatal(err)
		}
		if len(clone.Value().(*mlframework.Install).Libs) != len(in.Libs) {
			b.Fatal("clone lost libraries")
		}
		for _, buf := range bufs {
			bufpool.Put(buf)
		}
	}
}
