package dserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// postSubmit posts a job body (with its "base", if any) to POST /v1/jobs and
// returns the raw response for error-path assertions.
func postSubmit(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// TestIncrementalResubmitE2E is the acceptance-criteria test: extending a
// prior batch's workload set through POST /v1/jobs with a base job ID
// performs zero detection runs and recomputes only the union-delta
// locate/compact stages, with untouched libraries fully absorbed.
func TestIncrementalResubmitE2E(t *testing.T) {
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	baseWorkloads := []WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "Transformer", Batch: 32},
	}
	deltaWorkload := WorkloadSpec{Model: "Llama2"}

	// Job 1: the base batch.
	st := postJob(t, ts, JobRequest{Framework: "pytorch", TailLibs: 12, Workloads: baseWorkloads})
	base := pollDone(t, ts, st.ID)
	if base.State != JobDone {
		t.Fatalf("base job failed: %s", base.Error)
	}

	// Job 2: the delta workload on its own — registers its detection
	// profile so the incremental batch needs zero detection runs.
	st = postJob(t, ts, JobRequest{Framework: "pytorch", TailLibs: 12, Workloads: []WorkloadSpec{deltaWorkload}})
	if solo := pollDone(t, ts, st.ID); solo.State != JobDone {
		t.Fatalf("solo delta job failed: %s", solo.Error)
	}

	detectBefore := svc.Counters.Get("stage.detect.misses")
	analysisBefore := svc.Counters.Get("analysis.computed")
	verifyBefore := svc.Counters.Get("stage.verifyrun.misses")

	// Job 3: the incremental re-submit — base's members plus the delta.
	incReq := JobRequest{
		Framework: "pytorch", TailLibs: 12,
		Workloads: append(append([]WorkloadSpec{}, baseWorkloads...), deltaWorkload),
		Base:      base.ID,
	}
	resp, raw := postSubmit(t, ts, incReq)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("incremental submit: status %d: %s", resp.StatusCode, raw)
	}
	var incSt jobStatus
	if err := json.Unmarshal(raw, &incSt); err != nil {
		t.Fatal(err)
	}
	if incSt.Base != base.ID {
		t.Fatalf("status base = %q, want %q", incSt.Base, base.ID)
	}
	done := pollDone(t, ts, incSt.ID)
	if done.State != JobDone {
		t.Fatalf("incremental job failed: %s", done.Error)
	}
	if done.Verified == nil || !*done.Verified {
		t.Fatalf("incremental job must verify: %+v", done)
	}

	// Zero detection runs: every member's profile was registered.
	if d := svc.Counters.Get("stage.detect.misses") - detectBefore; d != 0 {
		t.Fatalf("incremental batch ran %d detections, want 0", d)
	}
	// Only the union-delta locate/compact stages recomputed.
	var rep jobReport
	if code := getJSON(t, ts.URL+"/v1/jobs/"+incSt.ID+"/report", &rep); code != http.StatusOK {
		t.Fatalf("report status %d", code)
	}
	if rep.Incremental == nil {
		t.Fatal("report must carry incremental stats")
	}
	inc := rep.Incremental
	if inc.BaseID != base.ID {
		t.Fatalf("incremental base = %q, want %q", inc.BaseID, base.ID)
	}
	totalLibs := len(rep.Libs)
	if inc.AbsorbedLibs+inc.DeltaLibs != totalLibs {
		t.Fatalf("absorbed %d + delta %d != %d libs", inc.AbsorbedLibs, inc.DeltaLibs, totalLibs)
	}
	if inc.AbsorbedLibs == 0 {
		t.Fatal("untouched libraries must absorb through their unchanged stage keys")
	}
	recomputed := svc.Counters.Get("analysis.computed") - analysisBefore
	if recomputed > int64(inc.DeltaLibs) {
		t.Fatalf("recomputed %d locate/compact stages, want at most the %d delta libs", recomputed, inc.DeltaLibs)
	}
	if recomputed >= int64(totalLibs) {
		t.Fatalf("incremental batch recomputed every library (%d of %d)", recomputed, totalLibs)
	}
	// Verification: base members carried over, only the delta re-ran.
	if inc.CarriedVerifications != len(baseWorkloads) {
		t.Fatalf("carried %d verifications, want %d", inc.CarriedVerifications, len(baseWorkloads))
	}
	if v := svc.Counters.Get("stage.verifyrun.misses") - verifyBefore; v != 1 {
		t.Fatalf("incremental batch ran %d verifications, want 1 (the delta member)", v)
	}

	// The /v1/metrics stages section exposes the same counters.
	var m struct {
		Stages map[string]map[string]int64 `json:"stages"`
	}
	if code := getJSON(t, ts.URL+"/v1/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if m.Stages[negativa.StageCompact]["hits"] == 0 || m.Stages[negativa.StageDetect]["misses"] == 0 {
		t.Fatalf("stages section not populated: %+v", m.Stages)
	}
}

// TestIncrementalSubmitValidation covers the base-reference error paths:
// unknown base (404), incompatible parameters (400), and a non-superset
// workload set (job fails with a clear error).
func TestIncrementalSubmitValidation(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	resp, _ := postSubmit(t, ts, JobRequest{
		Framework: "pytorch", TailLibs: 4,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
		Base:      "job-9999",
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown base: status %d, want 404", resp.StatusCode)
	}

	st := postJob(t, ts, JobRequest{Framework: "pytorch", TailLibs: 4, Workloads: []WorkloadSpec{{Model: "MobileNetV2"}}})
	if done := pollDone(t, ts, st.ID); done.State != JobDone {
		t.Fatalf("base job failed: %s", done.Error)
	}

	// Mismatched parameters are rejected at submit time.
	resp, raw := postSubmit(t, ts, JobRequest{
		Framework: "pytorch", TailLibs: 8,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
		Base:      st.ID,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mismatched tail_libs: status %d (%s), want 400", resp.StatusCode, raw)
	}

	// An omitted max_steps and an explicitly spelled-out service default
	// are the same effective configuration — accepted, not rejected.
	resp, raw = postSubmit(t, ts, JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2, // service default, base omitted it
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
		Base:      st.ID,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explicit-default max_steps: status %d (%s), want 202", resp.StatusCode, raw)
	}
	var dfltSt jobStatus
	if err := json.Unmarshal(raw, &dfltSt); err != nil {
		t.Fatal(err)
	}
	if done := pollDone(t, ts, dfltSt.ID); done.State != JobDone {
		t.Fatalf("explicit-default job failed: %s", done.Error)
	}

	// A non-superset set passes submission (identities need the install)
	// but fails the job with a clear error.
	resp, raw = postSubmit(t, ts, JobRequest{
		Framework: "pytorch", TailLibs: 4,
		Workloads: []WorkloadSpec{{Model: "Transformer"}},
		Base:      st.ID,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("non-superset submit: status %d (%s)", resp.StatusCode, raw)
	}
	var incSt jobStatus
	if err := json.Unmarshal(raw, &incSt); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, ts, incSt.ID)
	if done.State != JobFailed || done.Error == "" {
		t.Fatalf("non-superset job: state %s err %q, want failed", done.State, done.Error)
	}
}

// TestIncrementalBatchDirect exercises BatchOptions.Base through the Go
// API: verification outcomes carry over for base members and the
// incremental stats add up, with a base result that shares the service's
// memo tiers.
func TestIncrementalBatchDirect(t *testing.T) {
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 6})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(specs ...WorkloadSpec) []mlruntime.Workload {
		ws := make([]mlruntime.Workload, len(specs))
		for i, sp := range specs {
			if ws[i], err = sp.Workload(in); err != nil {
				t.Fatal(err)
			}
		}
		return ws
	}
	s1 := WorkloadSpec{Model: "MobileNetV2", Batch: 1}
	s2 := WorkloadSpec{Model: "Transformer", Batch: 32}

	base, err := svc.DebloatBatch(in, mk(s1), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := svc.DebloatBatch(in, mk(s1, s2), BatchOptions{Base: base, BaseID: "job-0001"})
	if err != nil {
		t.Fatal(err)
	}
	if inc.Incremental == nil || inc.Incremental.BaseID != "job-0001" {
		t.Fatalf("incremental stats missing: %+v", inc.Incremental)
	}
	if inc.Incremental.CarriedVerifications != 1 {
		t.Fatalf("carried = %d, want 1", inc.Incremental.CarriedVerifications)
	}
	if got := inc.Incremental.AbsorbedLibs + inc.Incremental.DeltaLibs; got != len(inc.Libs) {
		t.Fatalf("absorbed+delta = %d, want %d", got, len(inc.Libs))
	}
	if !inc.AllVerified() {
		t.Fatal("incremental batch must verify")
	}

	// Verification-mode mismatch is rejected.
	if _, err := svc.DebloatBatch(in, mk(s1, s2), BatchOptions{Base: base, SkipVerify: true}); err == nil {
		t.Fatal("skip-verify mismatch with base must fail")
	}
}

// TestStageMemoConcurrentComputes is the stage-memo race test: concurrent
// batches hammer the same stage keys through the shared StageMemo; the
// flight table must collapse duplicate computes and every caller must see
// a consistent value. Run with -race in CI.
func TestStageMemoConcurrentComputes(t *testing.T) {
	svc := NewService(Config{Workers: 8, MaxSteps: 2})
	defer svc.Close()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 8})
	if err != nil {
		t.Fatal(err)
	}
	sp := WorkloadSpec{Model: "MobileNetV2", Batch: 1}

	const concurrent = 6
	results := make([]*BatchResult, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := sp.Workload(in)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := svc.DebloatBatch(in, []mlruntime.Workload{w}, BatchOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("batch %d missing", i)
		}
		if !res.AllVerified() {
			t.Fatalf("batch %d failed verification", i)
		}
		if len(res.libKeys) != len(results[0].libKeys) {
			t.Fatalf("batch %d lib keys diverge", i)
		}
		for j := range res.libKeys {
			if res.libKeys[j] != results[0].libKeys[j] {
				t.Fatalf("batch %d key %d diverges", i, j)
			}
		}
	}

	// The compact flight table collapsed concurrent same-key computes:
	// each key computed at most once — computes cannot exceed distinct
	// keys.
	distinct := map[string]bool{}
	for _, k := range results[0].libKeys {
		distinct[k] = true
	}
	if computed := svc.Counters.Get("analysis.computed"); computed > int64(len(distinct)) {
		t.Fatalf("compact computed %d times for %d distinct keys — singleflight failed", computed, len(distinct))
	}
}

// TestWarmDiskSkipsLocation pins the location-on-miss contract: a batch
// whose compact results all come from the content-addressed store (fresh
// process, warm data dir) must not pay for symbol-to-range resolution —
// location runs inside a compact node, and none of them computes.
func TestWarmDiskSkipsLocation(t *testing.T) {
	dir := t.TempDir()
	sp := WorkloadSpec{Model: "MobileNetV2", Batch: 1}

	boot := func() (*Service, func()) {
		st, err := castore.Open(dir, castore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
		return svc, func() { svc.Close(); st.Close() }
	}
	runBatch := func(svc *Service) {
		in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 6})
		if err != nil {
			t.Fatal(err)
		}
		w, err := sp.Workload(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.DebloatBatch(in, []mlruntime.Workload{w}, BatchOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	svc1, close1 := boot()
	runBatch(svc1)
	if n := svc1.Counters.Get("analysis.computed"); n == 0 {
		t.Fatal("cold batch must locate and compact")
	}
	close1()

	svc2, close2 := boot()
	defer close2()
	runBatch(svc2)
	if n := svc2.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("warm-disk batch located and compacted %d libraries, want 0", n)
	}
}

// TestSharedMemoAcrossPlanners pins the canonical stage-value contract:
// A one-member negativa.Batch with no tier hooks — the planner
// negativa.Debloat runs — can run over the batch service's StageMemo and
// absorb its stages: identical keys must carry identical value types
// (detect profiles, compact results) in both directions.
func TestSharedMemoAcrossPlanners(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 6})
	if err != nil {
		t.Fatal(err)
	}
	w, err := (WorkloadSpec{Model: "MobileNetV2", Batch: 1}).Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DebloatBatch(in, []mlruntime.Workload{w}, BatchOptions{}); err != nil {
		t.Fatal(err)
	}

	b := negativa.NewBatch(in, []mlruntime.Workload{w}, 2)
	b.Verify = []bool{true}
	run, err := b.Run(plan.NewPool(2), svc.stages, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := run.Verify(0); !ok {
		t.Fatal("shared-memo debloat must verify")
	}
	if _, hit := run.Profile(0); !hit {
		t.Fatal("the batch must absorb the service's detect stage")
	}
	var analysis time.Duration
	for i := range in.LibNames {
		_, a, _, hit := run.Lib(i)
		if !hit {
			t.Fatalf("library %d: compact stage not absorbed", i)
		}
		analysis += a
	}
	if analysis == 0 {
		t.Fatal("a hit must carry the stage's virtual analysis time, which Debloat charges")
	}
}

// TestStageMemoRoutesTiers pins the memo's stage routing: detect keys land
// in the detect tier, compact keys in the result cache, and a key of any other
// stage is not memoized at all.
func TestStageMemoRoutesTiers(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()

	// Detect: a computed profile must be visible in the detect tier.
	key := negativa.DetectKey("fp-1", "wid-1")
	p := &negativa.Profile{Workload: "w"}
	v, src, err := svc.stages.GetOrCompute(nil, key, nil, func() (any, error) { return p, nil })
	if err != nil || src.Hit() || v.(*negativa.Profile) != p {
		t.Fatalf("detect compute: v=%v src=%v err=%v", v, src, err)
	}
	if got, ok := svc.Cache.get(negativa.StageDetect, key.Hash); !ok || got != p {
		t.Fatal("detect result must land in the detect tier")
	}
	if _, src, _ = svc.stages.GetOrCompute(nil, key, nil, func() (any, error) { t.Fatal("must hit"); return nil, nil }); !src.Hit() {
		t.Fatal("detect re-lookup must hit")
	}

	// An unrouted key computes every time and reports SourceComputed.
	uk := plan.Key{Stage: negativa.StageVerifyRef, Hash: "abc"}
	for want := 1; want <= 2; want++ {
		v, src, err := svc.stages.GetOrCompute(nil, uk, nil, func() (any, error) { return want, nil })
		if err != nil || src != plan.SourceComputed || v.(int) != want {
			t.Fatalf("unrouted lookup %d: v=%v src=%v err=%v", want, v, src, err)
		}
	}
}
