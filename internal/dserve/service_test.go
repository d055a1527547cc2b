package dserve

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"negativaml/internal/mlruntime"
)

func TestDebloatBatchUnionVerifiesAndCaches(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()

	res, err := svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 4 || len(res.Libs) != len(in.LibNames) {
		t.Fatalf("result shape: %d workloads, %d libs", len(res.Workloads), len(res.Libs))
	}
	for _, o := range res.Workloads {
		if !o.Verified {
			t.Errorf("workload %s not verified against the union-debloated install", o.Name)
		}
		if o.ProfileReused {
			t.Errorf("workload %s claims profile reuse on a cold registry", o.Name)
		}
	}
	if res.CacheHits != 0 || res.CacheMisses != len(in.LibNames) {
		t.Errorf("cold batch cache hits/misses = %d/%d, want 0/%d", res.CacheHits, res.CacheMisses, len(in.LibNames))
	}
	if res.DetectTime <= 0 || res.AnalysisTime <= 0 || res.EndToEnd() != res.DetectTime+res.AnalysisTime {
		t.Errorf("timing accounting: detect=%v analysis=%v e2e=%v", res.DetectTime, res.AnalysisTime, res.EndToEnd())
	}
	agg := res.Aggregate()
	if agg.FileReductionPct() <= 0 {
		t.Error("union debloat should still remove bloat")
	}
	// The union keeps at least as much as any single member's debloat.
	for _, lr := range res.Libs {
		if lr.FuncKept > lr.FuncCount || lr.ElemKept > lr.ElemCount {
			t.Errorf("%s: kept more than exists", lr.Name)
		}
	}

	// Repeated batch: every profile and every library result is reused.
	res2, err := svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ProfileReuses != 4 {
		t.Errorf("profile reuses = %d, want 4", res2.ProfileReuses)
	}
	if res2.CacheHits < 1 {
		t.Error("repeated batch must report at least one cache hit")
	}
	if res2.CacheHits != len(in.LibNames) || res2.CacheMisses != 0 {
		t.Errorf("warm batch cache hits/misses = %d/%d, want %d/0", res2.CacheHits, res2.CacheMisses, len(in.LibNames))
	}
	if res2.DetectTime != 0 || res2.AnalysisTime != 0 {
		t.Errorf("warm batch virtual cost = %v+%v, want 0 (everything reused)", res2.DetectTime, res2.AnalysisTime)
	}
	if !res2.AllVerified() {
		t.Error("warm batch must still verify every member")
	}
	if svc.Counters.Get("stage.detect.hits") != 4 || svc.Counters.Get("cache.hits") < int64(len(in.LibNames)) {
		t.Errorf("service counters: %v", svc.Counters.Snapshot())
	}

	// A subset batch rides the same cache when its union matches nothing —
	// different union symbols ⇒ misses for GPU-hosting libs, but identical
	// tail libs (same bytes, same — empty — used sets) still hit.
	res3, err := svc.DebloatBatch(in, ws[:1], BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CacheHits == 0 {
		t.Error("subset batch should hit cached tail-library results")
	}
}

func TestDebloatBatchSkipVerify(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()

	res, err := svc.DebloatBatch(in, ws[:1], BatchOptions{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.VerifySkipped {
		t.Error("result must record that verification was skipped")
	}
	if !res.AllVerified() {
		t.Error("AllVerified is vacuously true when verification was skipped")
	}
}

func TestJobRetentionBounded(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2, MaxJobs: 2})
	defer svc.Close()

	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
		MaxSteps:  2,
	}
	var last string
	for i := 0; i < 4; i++ {
		job, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := waitJob(svc, job.ID, 60*time.Second); err != nil {
			t.Fatal(err)
		}
		last = job.ID
	}
	jobs := svc.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2 (MaxJobs)", len(jobs))
	}
	if jobs[len(jobs)-1].ID != last {
		t.Errorf("newest job %s must survive pruning, got %v", last, jobs)
	}
	if svc.Counters.Get("jobs.evicted") != 2 {
		t.Errorf("jobs.evicted = %d, want 2", svc.Counters.Get("jobs.evicted"))
	}
	if svc.Job(last) == nil {
		t.Error("latest job must still be fetchable")
	}
}

func TestDebloatBatchValidation(t *testing.T) {
	in := testInstall(t)
	ws := testWorkloads(t, in)
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()

	if _, err := svc.DebloatBatch(in, nil, BatchOptions{}); err == nil {
		t.Error("empty batch must fail")
	}
	if _, err := svc.DebloatBatch(nil, ws, BatchOptions{}); err == nil {
		t.Error("nil install must fail")
	}

	// A workload referencing a different install must be rejected — mixing
	// installs in one batch would debloat against the wrong bytes.
	foreign, err := svc.install("PyTorch", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append([]mlruntime.Workload(nil), ws...)
	mixed[1].Install = foreign
	if _, err := svc.DebloatBatch(in, mixed, BatchOptions{}); err == nil || !strings.Contains(err.Error(), "does not reference") {
		t.Errorf("mixed-install batch: %v", err)
	}
}

func TestSubmitJobLifecycle(t *testing.T) {
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()

	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  4,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2"},
			{Model: "Transformer", Train: true, Batch: 128},
		},
		MaxSteps: 2,
	}
	job, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := waitJob(svc, job.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone {
		t.Fatalf("job state = %s (%s)", done.State, done.Err)
	}
	if !done.Result.AllVerified() {
		t.Error("job result must verify")
	}
	if got := svc.Counters.Get("jobs.completed"); got != 1 {
		t.Errorf("jobs.completed = %d", got)
	}
	if list := svc.Jobs(); len(list) != 1 || list[0].ID != job.ID {
		t.Errorf("job listing = %v", list)
	}

	// Bad submissions are rejected synchronously.
	if _, err := svc.Submit(JobRequest{Framework: "caffe", Workloads: req.Workloads}); err == nil {
		t.Error("unknown framework must be rejected")
	}
	if _, err := svc.Submit(JobRequest{Framework: "pytorch"}); err == nil {
		t.Error("empty workload list must be rejected")
	}
	if _, err := svc.Submit(JobRequest{Framework: "pytorch", Workloads: []WorkloadSpec{{Model: "ResNet"}}}); err == nil {
		t.Error("unknown model must be rejected")
	}
	if _, err := svc.Submit(JobRequest{Framework: "pytorch", Workloads: []WorkloadSpec{{Model: "MobileNetV2", Device: "TPU"}}}); err == nil {
		t.Error("unknown device must be rejected")
	}

	// After Close, submissions are refused.
	svc.Close()
	if _, err := svc.Submit(req); err == nil || !strings.Contains(err.Error(), "shut down") {
		t.Errorf("submit after close: %v", err)
	}
}

// gateObserver holds a job at its first finished stage until release closes.
type gateObserver struct{ release <-chan struct{} }

func (g gateObserver) StageDone(string, bool, time.Duration) { <-g.release }

// waitJob blocks until the job reaches a terminal state or the timeout
// elapses, returning the final snapshot — what an in-process caller does
// with JobEvents where an HTTP client long-polls the event stream.
func waitJob(s *Service, id string, timeout time.Duration) (*Job, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	after, expired := -1, false
	for {
		evs, done, wake, err := s.JobEvents(id, after)
		if err != nil {
			return nil, fmt.Errorf("dserve: unknown job %q", id)
		}
		if done || expired {
			// The terminal event follows the terminal state, so the
			// snapshot of a done stream reads done or failed.
			job := s.Job(id)
			if job == nil {
				return nil, fmt.Errorf("dserve: unknown job %q", id)
			}
			if !done {
				return job, fmt.Errorf("dserve: job %s still %s after %v", id, job.State, timeout)
			}
			return job, nil
		}
		after += len(evs)
		select {
		case <-wake:
		case <-timer.C:
			expired = true
		}
	}
}

func TestWaitJob(t *testing.T) {
	svc := NewService(Config{Workers: 4, MaxSteps: 2})
	defer svc.Close()

	if _, err := waitJob(svc, "job-9999", time.Minute); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Errorf("unknown ID: %v", err)
	}

	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	job, err := svc.SubmitWith(JobRequest{
		Framework: "pytorch", TailLibs: 4, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2"}},
	}, SubmitOptions{Observer: gateObserver{gate}})
	if err != nil {
		t.Fatal(err)
	}

	held, err := waitJob(svc, job.ID, 10*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "after 10ms") {
		t.Fatalf("expired deadline on a held job: %v", err)
	}
	if held == nil || held.State == JobDone || held.State == JobFailed {
		t.Fatalf("expired deadline must return the live snapshot, got %+v", held)
	}

	// The job finishes while the call is blocked: it returns on the
	// terminal event, long before the deadline.
	time.AfterFunc(20*time.Millisecond, release)
	start := time.Now()
	done, err := waitJob(svc, job.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != JobDone {
		t.Fatalf("released job is %s (%s)", done.State, done.Err)
	}
	if waited := time.Since(start); waited >= time.Minute {
		t.Errorf("waitJob returned after %v: it sat out the deadline", waited)
	}
}

// TestHeldJobLifecycle: a held job counts toward MaxInFlight and does not
// run until Release; Withdraw ends one cancelled with the stream [queued,
// cancelled]; Close fails a still-held job and calls its OnDone; and a
// job's OnEvict never precedes its OnDone.
func TestHeldJobLifecycle(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2, MaxInFlight: 2, MaxJobs: 1})
	var mu sync.Mutex
	var calls []string
	record := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		calls = append(calls, fmt.Sprintf(format, args...))
	}
	submit := func(tail int) (*Job, error) {
		return svc.SubmitWith(JobRequest{
			Framework: "pytorch", TailLibs: tail, MaxSteps: 2,
			Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
		}, SubmitOptions{
			Hold:    true,
			OnDone:  func(j *Job) { record("done %s %s", j.ID, j.State) },
			OnEvict: func(id string) { record("evict %s", id) },
		})
	}
	a, err := submit(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := submit(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(4); !errors.Is(err, ErrBusy) {
		t.Fatalf("third held job: %v, want ErrBusy (held jobs count toward MaxInFlight)", err)
	}
	if !svc.Withdraw(b.ID) || svc.Withdraw(b.ID) || svc.Release(b.ID) {
		t.Fatal("a held job withdraws exactly once and is then not held")
	}
	evs, done, _, _ := svc.JobEvents(b.ID, -1)
	if !done || len(evs) != 2 || evs[0].State != JobQueued || evs[1].State != JobCancelled || !evs[1].Terminal {
		t.Fatalf("withdrawn job's stream = %+v", evs)
	}
	if st := svc.Job(a.ID).State; st != JobQueued {
		t.Fatalf("held job is %s before Release", st)
	}
	if !svc.Release(a.ID) || svc.Release(a.ID) {
		t.Fatal("a held job releases exactly once")
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		n := len(calls)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("released job never finished")
		}
	}
	c, err := submit(4)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if j := svc.Job(c.ID); j.State != JobFailed || j.Err != ErrClosed.Error() {
		t.Fatalf("held job after Close: %s %q", j.State, j.Err)
	}
	// MaxJobs=1 keeps the newest submission among terminal jobs: a's own
	// completion evicts a (b is newer), after a's OnDone.
	want := []string{
		"done " + a.ID + " done", "evict " + a.ID,
		"done " + c.ID + " failed", "evict " + b.ID,
	}
	if strings.Join(calls, "; ") != strings.Join(want, "; ") {
		t.Fatalf("callbacks = %q, want %q", calls, want)
	}
}
