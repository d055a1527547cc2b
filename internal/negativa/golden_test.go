package negativa

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/models"
	"negativaml/internal/plan"
)

// goldenWorkload builds one representative workload per framework fixture.
func goldenWorkload(t *testing.T, fw string) mlruntime.Workload {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: fw, TailLibs: 8})
	if err != nil {
		t.Fatalf("%s: %v", fw, err)
	}
	var graph *models.Graph
	var data dataset.Dataset
	switch fw {
	case mlframework.PyTorch:
		graph, data = models.MobileNetV2(true, 16), dataset.CIFAR10
	case mlframework.TensorFlow:
		graph, data = models.MobileNetV2(false, 8), dataset.CIFAR10
	case mlframework.VLLM:
		graph, data = models.LLM(models.Llama2(true, 1)), dataset.ManualInput
	default:
		graph, data = models.LLM(models.Llama2(false, 1)), dataset.ManualInput
	}
	return mlruntime.Workload{
		Name:           fw + "/golden",
		Install:        in,
		Graph:          graph,
		Devices:        []gpuarch.Device{gpuarch.T4},
		Mode:           cudasim.EagerLoading,
		Data:           data,
		Epochs:         1,
		PerItemCompute: 100 * time.Microsecond,
	}
}

// equalResults asserts the staged planner's Result is byte-identical to
// the monolith's: every report field, every materialized library image,
// the virtual timings, and the verification outcome.
func equalResults(t *testing.T, label string, mono, staged *Result) {
	t.Helper()
	if mono.Workload != staged.Workload {
		t.Fatalf("%s: workload %q vs %q", label, mono.Workload, staged.Workload)
	}
	if !reflect.DeepEqual(mono.Profile, staged.Profile) {
		t.Fatalf("%s: profiles diverge", label)
	}
	if mono.DetectTime != staged.DetectTime || mono.AnalysisTime != staged.AnalysisTime || mono.EndToEnd != staged.EndToEnd {
		t.Fatalf("%s: timings diverge: detect %v/%v analysis %v/%v end-to-end %v/%v", label,
			mono.DetectTime, staged.DetectTime, mono.AnalysisTime, staged.AnalysisTime, mono.EndToEnd, staged.EndToEnd)
	}
	if len(mono.Libs) != len(staged.Libs) {
		t.Fatalf("%s: %d vs %d library reports", label, len(mono.Libs), len(staged.Libs))
	}
	for i := range mono.Libs {
		m, s := mono.Libs[i], staged.Libs[i]
		// Compare every analytic field; Sparse itself is compared through
		// its materialization below.
		mCopy, sCopy := *m, *s
		mCopy.Sparse, sCopy.Sparse = nil, nil
		if !reflect.DeepEqual(mCopy, sCopy) {
			t.Fatalf("%s: report %s diverges:\nmono:   %+v\nstaged: %+v", label, m.Name, mCopy, sCopy)
		}
		if !bytes.Equal(m.Debloated(), s.Debloated()) {
			t.Fatalf("%s: %s debloated bytes diverge", label, m.Name)
		}
	}
	if mono.Verified != staged.Verified {
		t.Fatalf("%s: verified %v vs %v", label, mono.Verified, staged.Verified)
	}
	if (mono.VerifyResult == nil) != (staged.VerifyResult == nil) {
		t.Fatalf("%s: verify result presence diverges", label)
	}
	if mono.VerifyResult != nil && mono.VerifyResult.Digest != staged.VerifyResult.Digest {
		t.Fatalf("%s: verify digests diverge", label)
	}
}

// TestGoldenPlannerMatchesMonolith sweeps every framework fixture through
// both implementations across the option space: plain, capped-verify
// (VerifySteps != MaxSteps exercises the overlapped reference-run node),
// and skip-verify.
func TestGoldenPlannerMatchesMonolith(t *testing.T) {
	frameworks := []string{
		mlframework.PyTorch, mlframework.TensorFlow,
		mlframework.VLLM, mlframework.HFTransformers,
	}
	opts := []Options{
		{MaxSteps: 4},
		{MaxSteps: 0, VerifySteps: 2}, // uncapped detection, capped reference run
		{MaxSteps: 3, SkipVerify: true},
	}
	for _, fw := range frameworks {
		w := goldenWorkload(t, fw)
		for oi, opt := range opts {
			label := fmt.Sprintf("%s/opt%d", fw, oi)
			mono, err := debloatMonolith(w, opt)
			if err != nil {
				t.Fatalf("%s: monolith: %v", label, err)
			}
			staged, err := Debloat(w, opt)
			if err != nil {
				t.Fatalf("%s: staged: %v", label, err)
			}
			equalResults(t, label, mono, staged)
		}
	}
}

// TestGoldenPlannerSharedMemo repeats one debloat over a shared memo: the
// second run must absorb every memoized stage yet return an identical
// Result — the warm path stays byte-faithful to the cold one.
func TestGoldenPlannerSharedMemo(t *testing.T) {
	w := goldenWorkload(t, mlframework.PyTorch)
	opt := Options{MaxSteps: 4, VerifySteps: 2}
	memo := newMapMemo()

	cold, err := debloat(w, opt, memo)
	if err != nil {
		t.Fatal(err)
	}
	if len(memo.vals) == 0 {
		t.Fatal("shared memo must retain stage results")
	}
	warm, err := debloat(w, opt, memo)
	if err != nil {
		t.Fatal(err)
	}
	if memo.hits == 0 {
		t.Fatal("the warm run absorbed no stage")
	}
	equalResults(t, "warm-vs-cold", cold, warm)

	mono, err := debloatMonolith(w, Options{MaxSteps: 4, VerifySteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "warm-vs-monolith", mono, warm)
}

// mapMemo is a plan.Memo over a plain map, counting its hits: enough for
// tests that need one run's stage values to serve the next.
type mapMemo struct {
	mu   sync.Mutex
	vals map[plan.Key]any
	hits int
}

func newMapMemo() *mapMemo { return &mapMemo{vals: map[plan.Key]any{}} }

func (m *mapMemo) GetOrCompute(_ plan.Executor, key plan.Key, _ any, compute func() (any, error)) (any, plan.Source, error) {
	m.mu.Lock()
	v, ok := m.vals[key]
	if ok {
		m.hits++
	}
	m.mu.Unlock()
	if ok {
		return v, plan.SourceMemory, nil
	}
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	m.mu.Lock()
	m.vals[key] = v
	m.mu.Unlock()
	return v, plan.SourceComputed, nil
}

// TestGoldenPlannerSerialWidth pins determinism across pool widths: a
// single-worker plan and a wide plan produce identical results.
func TestGoldenPlannerSerialWidth(t *testing.T) {
	w := goldenWorkload(t, mlframework.TensorFlow)
	serial, err := Debloat(w, Options{MaxSteps: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Debloat(w, Options{MaxSteps: 4, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, "serial-vs-wide", serial, wide)
}
