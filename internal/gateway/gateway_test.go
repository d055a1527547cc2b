package gateway

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"negativaml/internal/dserve"
	"negativaml/internal/plan"
)

// fakeBackend is a hand-cranked Backend: submissions are held instantly,
// released jobs complete only when the test says so, which makes
// admission, coalescing, cancellation, and accounting orderings
// deterministic.
type fakeBackend struct {
	mu    sync.Mutex
	seq   int
	limit int // when positive, ErrBusy at this many queued or running jobs
	jobs  map[string]*dserve.Job
	logs  map[string]*dserve.EventLog
	opts  map[string]dserve.SubmitOptions
	ids   []string // release (dispatch) order
}

func newFake() *fakeBackend {
	return &fakeBackend{
		jobs: map[string]*dserve.Job{},
		logs: map[string]*dserve.EventLog{},
		opts: map[string]dserve.SubmitOptions{},
	}
}

func (f *fakeBackend) SubmitWith(req dserve.JobRequest, opts dserve.SubmitOptions) (*dserve.Job, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	inflight := 0
	for _, j := range f.jobs {
		if j.State == dserve.JobQueued || j.State == dserve.JobRunning {
			inflight++
		}
	}
	if f.limit > 0 && inflight >= f.limit {
		return nil, dserve.ErrBusy
	}
	f.seq++
	id := fmt.Sprintf("job-%04d", f.seq)
	j := &dserve.Job{ID: id, Req: req, State: dserve.JobQueued, Submitted: time.Now()}
	log := dserve.NewEventLog()
	log.Append(dserve.JobEvent{Type: dserve.EventState, State: dserve.JobQueued})
	f.jobs[id], f.logs[id], f.opts[id] = j, log, opts
	return &dserve.Job{ID: id, Req: req, State: dserve.JobQueued}, nil
}

func (f *fakeBackend) Release(id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ids = append(f.ids, id)
	return true
}

func (f *fakeBackend) Withdraw(id string) bool {
	f.mu.Lock()
	f.jobs[id].State = dserve.JobCancelled
	log := f.logs[id]
	f.mu.Unlock()
	log.Append(dserve.JobEvent{Type: dserve.EventState, State: dserve.JobCancelled, Terminal: true})
	return true
}

func (f *fakeBackend) Job(id string) *dserve.Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	j := f.jobs[id]
	if j == nil {
		return nil
	}
	snap := *j
	return &snap
}

func (f *fakeBackend) JobEvents(id string, after int) ([]dserve.JobEvent, bool, <-chan struct{}, error) {
	f.mu.Lock()
	log := f.logs[id]
	f.mu.Unlock()
	if log == nil {
		return nil, false, nil, dserve.ErrUnknownJob
	}
	evs, done, ch := log.After(after)
	return evs, done, ch, nil
}

func (f *fakeBackend) MetricsPayload() map[string]any {
	return map[string]any{"counters": map[string]int64{}}
}

// count returns how many held jobs the gateway has released.
func (f *fakeBackend) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ids)
}

// last returns the most recently released backend job ID.
func (f *fakeBackend) last() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ids[len(f.ids)-1]
}

// stage reports one finished stage: event appended, observer charged.
func (f *fakeBackend) stage(id, name string, done, total int, wall time.Duration) {
	f.mu.Lock()
	j, log, opts := f.jobs[id], f.logs[id], f.opts[id]
	j.State = dserve.JobRunning
	j.StagesDone, j.StagesTotal = done, total
	f.mu.Unlock()
	log.Append(dserve.JobEvent{Type: dserve.EventStage, Stage: name, StagesDone: done, StagesTotal: total})
	if opts.Observer != nil {
		opts.Observer.StageSource(name, plan.SourceComputed, wall)
	}
}

// finish drives the backend job terminal and then settles it.
func (f *fakeBackend) finish(id string, fail bool, msg string) {
	f.publish(id, fail, msg)
	f.settle(id)
}

// publish makes the job terminal, state and event, as the backend does
// before it calls OnDone.
func (f *fakeBackend) publish(id string, fail bool, msg string) {
	f.mu.Lock()
	j, log := f.jobs[id], f.logs[id]
	if fail {
		j.State, j.Err = dserve.JobFailed, msg
	} else {
		j.State = dserve.JobDone
	}
	state := j.State
	f.mu.Unlock()
	log.Append(dserve.JobEvent{Type: dserve.EventState, State: state, Error: msg, Terminal: true})
}

// settle calls the published job's OnDone.
func (f *fakeBackend) settle(id string) {
	f.mu.Lock()
	opts := f.opts[id]
	f.mu.Unlock()
	if opts.OnDone != nil {
		opts.OnDone(f.Job(id))
	}
}

// waitFor polls cond to true within two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testReq returns a distinct valid request per variant.
func testReq(v int) dserve.JobRequest {
	return dserve.JobRequest{
		Framework: "pytorch",
		TailLibs:  4 + v,
		Workloads: []dserve.WorkloadSpec{{Model: "MobileNetV2", Batch: 1}},
	}
}

func oneTenant(name, key string, q QuotaConfig) []TenantConfig {
	return []TenantConfig{{Name: name, Keys: []string{key}, Quota: q}}
}

func TestRequestDigestCanonical(t *testing.T) {
	a := testReq(0)
	b := testReq(0)
	b.Framework = "PyTorch" // spelling normalizes away
	if requestDigest(a) != requestDigest(b) {
		t.Fatal("framework spelling must not change the digest")
	}
	c := testReq(1)
	if requestDigest(a) == requestDigest(c) {
		t.Fatal("distinct requests must not collide")
	}
}

// TestQuotaExactlyExhausted: a tenant whose concurrency quota is exactly
// consumed by an in-flight batch sheds the next submission, and admits
// again the moment the batch completes.
func TestQuotaExactlyExhausted(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{}, oneTenant("t", "k", QuotaConfig{MaxConcurrent: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	v1, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Submit("t", testReq(1), "")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedConcurrency {
		t.Fatalf("want concurrency shed, got %v", err)
	}
	if shed.RetryAfter < 1 {
		t.Fatalf("Retry-After must be at least 1s, got %d", shed.RetryAfter)
	}
	if got := g.Counters.Get("tenant.t.shed"); got != 1 {
		t.Fatalf("tenant shed counter = %d, want 1", got)
	}

	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })
	fb.finish(fb.last(), false, "")
	waitFor(t, "completion", func() bool { return g.Job("t", v1.ID).State == dserve.JobDone })

	if _, err := g.Submit("t", testReq(2), ""); err != nil {
		t.Fatalf("slot freed by completion must admit: %v", err)
	}
}

// TestKeyRotationMidJob: rotating a tenant's keys while its job is in
// flight revokes the old key immediately, keeps the job owned by (and
// visible to) the tenant, and preserves live accounting.
func TestKeyRotationMidJob(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{}, oneTenant("t", "old-key", QuotaConfig{MaxConcurrent: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	v, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })

	if err := g.SetTenants(oneTenant("t", "new-key", QuotaConfig{MaxConcurrent: 1})); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Authenticate("old-key"); ok {
		t.Fatal("rotated-out key must stop authenticating")
	}
	name, ok := g.Authenticate("new-key")
	if !ok || name != "t" {
		t.Fatalf("new key must authenticate as t, got %q %v", name, ok)
	}
	if g.Job("t", v.ID) == nil {
		t.Fatal("in-flight job must survive rotation under its tenant")
	}
	// Accounting carried over: the pre-rotation job still occupies the slot.
	if _, err := g.Submit("t", testReq(1), ""); err == nil {
		t.Fatal("rotation must not reset the concurrency charge")
	}

	fb.finish(fb.last(), false, "")
	waitFor(t, "completion", func() bool { return g.Job("t", v.ID).State == dserve.JobDone })
	if _, err := g.Submit("t", testReq(2), ""); err != nil {
		t.Fatalf("post-rotation admission: %v", err)
	}
}

// TestCoalescedFollowersSeeLeaderFailure: followers of a failed unit
// receive its terminal failed event — they never hang.
func TestCoalescedFollowersSeeLeaderFailure(t *testing.T) {
	fb := newFake()
	tenants := []TenantConfig{
		{Name: "a", Keys: []string{"ka"}},
		{Name: "b", Keys: []string{"kb"}},
	}
	g, err := New(fb, Config{}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	va, err := g.Submit("a", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })
	vb, err := g.Submit("b", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if !vb.Coalesced {
		t.Fatal("identical in-flight request must coalesce")
	}
	if got := g.Counters.Get("gateway.coalesced"); got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
	if fb.count() != 1 {
		t.Fatalf("coalescing must not dispatch again: %d backend submits", fb.count())
	}

	fb.finish(fb.last(), true, "boom")
	waitFor(t, "both terminal", func() bool {
		return g.Job("a", va.ID).State == dserve.JobFailed && g.Job("b", vb.ID).State == dserve.JobFailed
	})
	if got := g.Job("b", vb.ID).Error; got != "boom" {
		t.Fatalf("follower error = %q, want leader's", got)
	}
	evs, done, _, err := g.JobEvents("b", vb.ID, -1)
	if err != nil || !done {
		t.Fatalf("follower stream must be terminally closed: done=%v err=%v", done, err)
	}
	last := evs[len(evs)-1]
	if !last.Terminal || last.State != dserve.JobFailed {
		t.Fatalf("follower terminal event = %+v", last)
	}
}

// TestCancelQueuedLeaderPromotesFollower: cancelling the leader of a
// still-queued coalesced unit detaches only the leader; the follower rides
// the unit to completion.
func TestCancelQueuedLeaderPromotesFollower(t *testing.T) {
	fb := newFake()
	tenants := []TenantConfig{
		{Name: "a", Keys: []string{"ka"}},
		{Name: "b", Keys: []string{"kb"}},
	}
	g, err := New(fb, Config{DispatchSlots: 1}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Occupy the only dispatch slot so the coalesced unit stays queued.
	blocker, err := g.Submit("a", testReq(9), "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker dispatch", func() bool { return fb.count() == 1 })
	blockerID := fb.last()

	va, err := g.Submit("a", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := g.Submit("b", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if !vb.Coalesced {
		t.Fatal("second rider must coalesce")
	}
	// The leader's tenant submitting the same request again rides the same
	// job as a second rider of its own.
	va2, err := g.Submit("a", testReq(0), "")
	if err != nil || !va2.Coalesced || va2.ID != va.ID {
		t.Fatalf("same-tenant duplicate = %+v, %v; want a coalesced rider of %s", va2, err, va.ID)
	}
	if jobs := g.Jobs("a"); len(jobs) != 2 || jobs[0].ID != blocker.ID || jobs[1].ID != va.ID {
		t.Fatalf("tenant a lists %+v, want %s then %s", jobs, blocker.ID, va.ID)
	}

	// One DELETE cancels all of the tenant's riders on the job; a second
	// finds nothing left to cancel.
	cv, err := g.Cancel("a", va.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cv.State != dserve.JobCancelled {
		t.Fatalf("cancelled leader state = %s", cv.State)
	}
	g.mu.Lock()
	inflight := g.tenants["a"].inflight
	g.mu.Unlock()
	if inflight != 1 {
		t.Fatalf("tenant a inflight after cancel = %d, want 1 (the blocker)", inflight)
	}
	if _, err := g.Cancel("a", va.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("second cancel: want ErrNotCancellable, got %v", err)
	}
	evs, done, _, _ := g.JobEvents("a", va.ID, -1)
	if !done || !evs[len(evs)-1].Terminal || evs[len(evs)-1].State != dserve.JobCancelled {
		t.Fatalf("cancelled leader must get a terminal cancelled event: %+v", evs)
	}

	fb.finish(blockerID, false, "")
	waitFor(t, "promoted unit dispatch", func() bool { return fb.count() == 2 })
	fb.finish(fb.last(), false, "")
	waitFor(t, "follower completion", func() bool { return g.Job("b", vb.ID).State == dserve.JobDone })
	if got := g.Job("a", va.ID).State; got != dserve.JobCancelled {
		t.Fatalf("cancelled leader must stay cancelled, got %s", got)
	}
	if got := g.Job("b", blocker.ID); got != nil {
		t.Fatal("blocker belongs to tenant a; tenant b must not see it")
	}
}

// TestCancelLastRiderDropsUnit: cancelling a queued unit's only rider
// withdraws the unit — the backend never sees it.
func TestCancelLastRiderDropsUnit(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{DispatchSlots: 1}, oneTenant("t", "k", QuotaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if _, err := g.Submit("t", testReq(9), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker dispatch", func() bool { return fb.count() == 1 })
	blockerID := fb.last()
	v, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Cancel("t", v.ID); err != nil {
		t.Fatal(err)
	}
	fb.finish(blockerID, false, "")
	time.Sleep(20 * time.Millisecond) // give a wrong dispatch a chance to happen
	if fb.count() != 1 {
		t.Fatalf("withdrawn unit must never dispatch: %d backend submits", fb.count())
	}
	// The cancelled rider no longer occupies the queue or any quota; a
	// fresh identical request starts a fresh unit.
	v2, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Coalesced {
		t.Fatal("fresh request after withdrawal must not coalesce onto a ghost")
	}
}

// TestCancelPastDispatch: once a unit dispatched, cancellation is refused.
func TestCancelPastDispatch(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{}, oneTenant("t", "k", QuotaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	v, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })
	if _, err := g.Cancel("t", v.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("want ErrNotCancellable, got %v", err)
	}
	fb.finish(fb.last(), false, "")
	waitFor(t, "completion", func() bool { return g.Job("t", v.ID).State == dserve.JobDone })
	if _, err := g.Cancel("t", v.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("terminal job cancel: want ErrNotCancellable, got %v", err)
	}
}

// TestWeightedLanes: with both lanes contended, dispatch order follows the
// configured interactive:bulk weight ratio.
func TestWeightedLanes(t *testing.T) {
	fb := newFake()
	tenants := []TenantConfig{{Name: "t", Keys: []string{"k"}}}
	g, err := New(fb, Config{DispatchSlots: 1, InteractiveWeight: 3, BulkWeight: 1}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if _, err := g.Submit("t", testReq(99), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker dispatch", func() bool { return fb.count() == 1 })

	// Queue 6 interactive and 2 bulk units while the slot is held.
	for i := 0; i < 6; i++ {
		if _, err := g.Submit("t", testReq(i), LaneInteractive); err != nil {
			t.Fatal(err)
		}
	}
	for i := 6; i < 8; i++ {
		if _, err := g.Submit("t", testReq(i), LaneBulk); err != nil {
			t.Fatal(err)
		}
	}

	// Drain one at a time, recording each dispatched unit's lane (encoded
	// in TailLibs by testReq's variant).
	var order []string
	for n := 1; n <= 8; n++ {
		fb.finish(fb.last(), false, "")
		waitFor(t, "next dispatch", func() bool { return fb.count() == n+1 })
		if fb.Job(fb.last()).Req.TailLibs >= 4+6 {
			order = append(order, "b")
		} else {
			order = append(order, "i")
		}
	}
	fb.finish(fb.last(), false, "")

	// Contested picks alternate 3:1; bulk must appear by the 2nd pick
	// (no starvation) and interactive must dominate the first 8.
	iCount := 0
	for _, l := range order[:8] {
		if l == "i" {
			iCount++
		}
	}
	if iCount != 6 {
		t.Fatalf("interactive got %d of 8 contested picks, want 6 (order %v)", iCount, order)
	}
	if order[0] != "i" || order[1] != "b" {
		t.Fatalf("weighted order should open i, b — got %v", order)
	}
}

// TestQueueFullShed: lane queues are bounded; overflow sheds queue_full.
func TestQueueFullShed(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{DispatchSlots: 1, QueueDepth: 2}, oneTenant("t", "k", QuotaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Submit("t", testReq(9), ""); err != nil {
		t.Fatal(err) // holds the slot
	}
	waitFor(t, "blocker dispatch", func() bool { return fb.count() == 1 })
	for i := 0; i < 2; i++ {
		if _, err := g.Submit("t", testReq(i), ""); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	_, err = g.Submit("t", testReq(5), "")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
		t.Fatalf("want queue_full shed, got %v", err)
	}
	// A duplicate of queued work still coalesces — riders don't consume
	// queue depth.
	v, err := g.Submit("t", testReq(0), "")
	if err != nil || !v.Coalesced {
		t.Fatalf("duplicate must coalesce past a full queue: %v %+v", err, v)
	}
	fb.finish(fb.last(), false, "")
}

// TestFullBulkLaneDoesNotShedInteractive: held jobs count toward the
// backend's MaxInFlight, and a backend sized by BackendMaxInFlight leaves
// each lane's depth as the limit that binds: a bulk lane at its depth
// sheds bulk admissions, never interactive ones.
func TestFullBulkLaneDoesNotShedInteractive(t *testing.T) {
	fb := newFake()
	cfg := Config{DispatchSlots: 1, QueueDepth: 2}
	fb.limit = cfg.BackendMaxInFlight()
	g, err := New(fb, cfg, oneTenant("t", "k", QuotaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i := 0; i < 3; i++ { // one dispatched, two queued
		if _, err := g.Submit("t", testReq(i), LaneBulk); err != nil {
			t.Fatalf("bulk submit %d: %v", i, err)
		}
	}
	var shed *ShedError
	if _, err := g.Submit("t", testReq(3), LaneBulk); !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
		t.Fatalf("bulk past its depth: want queue_full, got %v", err)
	}
	for i := 4; i < 6; i++ {
		if _, err := g.Submit("t", testReq(i), LaneInteractive); err != nil {
			t.Fatalf("interactive submit %d beside a full bulk lane: %v", i, err)
		}
	}
	if _, err := g.Submit("t", testReq(6), LaneInteractive); !errors.As(err, &shed) || shed.Reason != ShedQueueFull {
		t.Fatalf("interactive past its depth: want queue_full, got %v", err)
	}
}

// TestTerminalWaitsForSettlement: between the backend publishing a job
// terminal and its OnDone settling the riders' charges, the gateway still
// reports the job running and holds back its terminal event, so a client
// that sees the job end is admitted against settled quotas.
func TestTerminalWaitsForSettlement(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{}, oneTenant("t", "k", QuotaConfig{MaxConcurrent: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	v, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })
	id := fb.last()

	fb.publish(id, false, "")
	if st := g.Job("t", v.ID).State; st != dserve.JobRunning {
		t.Fatalf("published but unsettled job reads %s, want running", st)
	}
	evs, done, ch, err := g.JobEvents("t", v.ID, -1)
	if err != nil || done || len(evs) != 1 || evs[0].Terminal {
		t.Fatalf("unsettled stream = %+v done=%v err=%v; want [queued], not done", evs, done, err)
	}

	fb.settle(id)
	select {
	case <-ch:
	default:
		t.Fatal("settling must wake a stream waiting for the terminal event")
	}
	if st := g.Job("t", v.ID).State; st != dserve.JobDone {
		t.Fatalf("settled job reads %s, want done", st)
	}
	rest, done, _, _ := g.JobEvents("t", v.ID, evs[0].Seq)
	if !done || len(rest) != 1 || !rest[0].Terminal || rest[0].State != dserve.JobDone {
		t.Fatalf("settled stream = %+v done=%v", rest, done)
	}
	if _, err := g.Submit("t", testReq(1), ""); err != nil {
		t.Fatalf("a job seen done must have freed its concurrency slot: %v", err)
	}
}

// TestStageSecondsWindow: stage wall time charges the dispatching tenant's
// window; an exhausted window sheds until it rolls over.
func TestStageSecondsWindow(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{}, oneTenant("t", "k", QuotaConfig{StageSeconds: 5, WindowSeconds: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	v, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })
	id := fb.last()
	fb.stage(id, "locate", 1, 2, 10*time.Second) // blows the 5s budget
	fb.finish(id, false, "")
	waitFor(t, "completion", func() bool { return g.Job("t", v.ID).State == dserve.JobDone })

	_, err = g.Submit("t", testReq(1), "")
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedStageSeconds {
		t.Fatalf("want stage_seconds shed, got %v", err)
	}
	if shed.RetryAfter < 1 {
		t.Fatalf("window shed Retry-After = %d", shed.RetryAfter)
	}

	time.Sleep(1100 * time.Millisecond) // window rolls
	if _, err := g.Submit("t", testReq(1), ""); err != nil {
		t.Fatalf("rolled window must admit: %v", err)
	}
}

// TestCancelledFollowerStream: a follower cancelled while its job is held
// reads exactly [queued, cancelled (terminal)], and its status stays
// cancelled while the shared job runs to done for the other rider.
func TestCancelledFollowerStream(t *testing.T) {
	fb := newFake()
	tenants := []TenantConfig{
		{Name: "a", Keys: []string{"ka"}},
		{Name: "b", Keys: []string{"kb"}},
	}
	g, err := New(fb, Config{DispatchSlots: 1}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Submit("a", testReq(9), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker dispatch", func() bool { return fb.count() == 1 })
	blockerID := fb.last()
	va, err := g.Submit("a", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := g.Submit("b", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if !vb.Coalesced || vb.ID != va.ID {
		t.Fatalf("follower %+v must share leader %s's job", vb, va.ID)
	}
	if _, err := g.Cancel("b", vb.ID); err != nil {
		t.Fatal(err)
	}
	wantCancelled := func() {
		t.Helper()
		evs, done, _, err := g.JobEvents("b", vb.ID, -1)
		if err != nil || !done || len(evs) != 2 ||
			evs[0].Seq != 0 || evs[0].State != dserve.JobQueued || evs[0].Terminal ||
			evs[1].Seq != 1 || evs[1].State != dserve.JobCancelled || !evs[1].Terminal {
			t.Fatalf("cancelled follower stream = %+v done=%v err=%v", evs, done, err)
		}
		if rest, _, _, _ := g.JobEvents("b", vb.ID, 0); len(rest) != 1 || rest[0].Seq != 1 {
			t.Fatalf("resumed cancelled stream = %+v", rest)
		}
		if v := g.Job("b", vb.ID); v == nil || v.State != dserve.JobCancelled || v.StagesDone != 0 {
			t.Fatalf("cancelled follower status = %+v", v)
		}
	}
	wantCancelled()

	fb.finish(blockerID, false, "")
	waitFor(t, "shared job dispatch", func() bool { return fb.count() == 2 })
	id := fb.last()
	fb.stage(id, "detect", 1, 2, time.Millisecond)
	wantCancelled()
	fb.finish(id, false, "")
	waitFor(t, "leader completion", func() bool { return g.Job("a", va.ID).State == dserve.JobDone })
	wantCancelled()
	evs, done, _, _ := g.JobEvents("a", va.ID, -1)
	if !done || evs[len(evs)-1].State != dserve.JobDone {
		t.Fatalf("leader stream = %+v", evs)
	}
}

// TestGatewayStartsNoGoroutinePerUnit: dispatch releases held backend jobs
// and completion arrives by callback, so 50 dispatched units cost the
// gateway no goroutines.
func TestGatewayStartsNoGoroutinePerUnit(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{DispatchSlots: 64}, oneTenant("t", "k", QuotaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := g.Submit("t", testReq(i), ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 50 })
	if n := runtime.NumGoroutine(); n > base+5 {
		t.Fatalf("%d goroutines with 50 units dispatched, baseline %d", n, base)
	}
	for _, id := range fb.ids {
		fb.finish(id, false, "")
	}
}

// TestLateFollowerReplay: a follower that attaches after stages completed
// receives the job's full history, not just the suffix.
func TestLateFollowerReplay(t *testing.T) {
	fb := newFake()
	tenants := []TenantConfig{
		{Name: "a", Keys: []string{"ka"}},
		{Name: "b", Keys: []string{"kb"}},
	}
	g, err := New(fb, Config{}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if _, err := g.Submit("a", testReq(0), ""); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })
	id := fb.last()
	fb.stage(id, "detect", 1, 3, time.Millisecond)
	fb.stage(id, "locate", 2, 3, time.Millisecond)
	// Wait until both stages show in the status before attaching.
	waitFor(t, "stages", func() bool {
		vs := g.Jobs("a")
		return vs[0].StagesDone == 2
	})

	vb, err := g.Submit("b", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if !vb.Coalesced || vb.StagesDone != 2 || vb.StagesTotal != 3 {
		t.Fatalf("late follower snapshot = %+v", vb)
	}
	evs, _, _, _ := g.JobEvents("b", vb.ID, -1)
	stages := 0
	for _, ev := range evs {
		if ev.Type == dserve.EventStage {
			stages++
		}
	}
	if stages != 2 {
		t.Fatalf("late follower replayed %d stage events, want 2", stages)
	}
	fb.finish(id, false, "")
	waitFor(t, "completion", func() bool { return g.Job("b", vb.ID).State == dserve.JobDone })
}

// TestEvictionReleasesResultBytes: jobs the backend's MaxJobs pruning
// evicts release their tenants' retained-byte charges.
func TestEvictionReleasesResultBytes(t *testing.T) {
	svc := dserve.NewService(dserve.Config{Workers: 2, MaxSteps: 2, MaxJobs: 1})
	defer svc.Close()
	g, err := New(svc, Config{}, oneTenant("t", "k", QuotaConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var last string
	for i := 0; i < 3; i++ {
		v, err := g.Submit("t", loadRequest(i, 6), "")
		if err != nil {
			t.Fatal(err)
		}
		last = v.ID
		waitFor(t, "completion", func() bool {
			g.mu.Lock()
			defer g.mu.Unlock()
			return len(g.units) == 0
		})
	}
	waitFor(t, "evictions", func() bool { return g.Counters.Get("gateway.evicted") == 2 })
	if got := g.Counters.Get("gateway.evicted"); got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
	if got := len(g.Jobs("t")); got != 1 {
		t.Fatalf("retained jobs = %d, want 1", got)
	}
	g.mu.Lock()
	charged, kept := g.tenants["t"].resultBytes, g.jobs[last].bytes
	g.mu.Unlock()
	if kept == 0 || charged != kept {
		t.Fatalf("charged %d result bytes, want the retained job's %d", charged, kept)
	}
}

// TestEvictionUnderConcurrentAdmission: with a two-job backend table, 200
// submissions from 8 goroutines across two tenants race eviction against
// admission and completion. Nothing deadlocks, every unit settles, and
// the tenants stay charged exactly for the riders of retained jobs.
func TestEvictionUnderConcurrentAdmission(t *testing.T) {
	svc := dserve.NewService(dserve.Config{Workers: 2, MaxSteps: 2, MaxJobs: 2})
	defer svc.Close()
	g, err := New(svc, Config{}, []TenantConfig{
		{Name: "a", Keys: []string{"ka"}},
		{Name: "b", Keys: []string{"kb"}, Lane: LaneBulk},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					tenant := []string{"a", "b"}[i%2]
					v, err := g.Submit(tenant, loadRequest(i%3, 4), "")
					if err != nil {
						t.Errorf("submit %d: %v", i, err)
						continue
					}
					// Follow the job to its terminal event, or to its eviction.
					for after := -1; ; {
						evs, done, ch, err := g.JobEvents(tenant, v.ID, after)
						if err != nil || done {
							break
						}
						if len(evs) > 0 {
							after = evs[len(evs)-1].Seq
							continue
						}
						<-ch
					}
				}
			}()
		}
		for i := 0; i < 200; i++ {
			next <- i
		}
		close(next)
		wg.Wait()
		for {
			g.mu.Lock()
			settled := len(g.units) == 0 && g.inflightUnits == 0
			g.mu.Unlock()
			if settled {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("admission, completion and eviction did not settle in 10s")
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if n := len(g.jobs); n > 2 {
		t.Fatalf("gateway indexes %d jobs over a two-job backend", n)
	}
	want := map[string]int64{}
	for _, u := range g.jobs {
		for _, r := range u.riders {
			want[r.tenant] += u.bytes
		}
	}
	for name, ts := range g.tenants {
		if ts.inflight != 0 || ts.resultBytes != want[name] {
			t.Errorf("tenant %s: inflight %d, result bytes %d, want 0 and %d", name, ts.inflight, ts.resultBytes, want[name])
		}
	}
	if ev, bev := g.Counters.Get("gateway.evicted"), svc.Counters.Get("jobs.evicted"); ev != bev || ev == 0 {
		t.Errorf("gateway saw %d evictions, backend made %d", ev, bev)
	}
}

// TestTenantRemoveMidFlight: a tenant removed by a reload while it has
// in-flight work keeps its accounting (key-less) so the eventual
// completion settles against real counts — re-adding the tenant must not
// start from a zeroed state, and inflight must never go negative.
func TestTenantRemoveMidFlight(t *testing.T) {
	fb := newFake()
	g, err := New(fb, Config{}, oneTenant("t", "k", QuotaConfig{MaxConcurrent: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	v, err := g.Submit("t", testReq(0), "")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatch", func() bool { return fb.count() == 1 })

	// Reload without "t": its keys stop working, but its live accounting
	// survives the reload.
	if err := g.SetTenants(oneTenant("u", "k2", QuotaConfig{})); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Authenticate("k"); ok {
		t.Fatal("removed tenant's key still authenticates")
	}
	g.mu.Lock()
	ts := g.tenants["t"]
	g.mu.Unlock()
	if ts == nil || ts.inflight != 1 {
		t.Fatalf("removed tenant's live accounting dropped: %+v", ts)
	}

	// Re-add "t" (rotated key): the retained state carries over, so the
	// finishing job decrements the true count instead of a fresh zero.
	if err := g.SetTenants([]TenantConfig{
		{Name: "t", Keys: []string{"k-new"}, Quota: QuotaConfig{MaxConcurrent: 2}},
		{Name: "u", Keys: []string{"k2"}},
	}); err != nil {
		t.Fatal(err)
	}
	fb.finish(fb.last(), false, "")
	waitFor(t, "completion", func() bool {
		j := g.Job("t", v.ID)
		return j != nil && j.State == dserve.JobDone
	})
	g.mu.Lock()
	inflight := g.tenants["t"].inflight
	g.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight after completion = %d, want 0", inflight)
	}

	// Fully drained, the next reload drops the tenant for real.
	if err := g.SetTenants(oneTenant("u", "k2", QuotaConfig{})); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	_, kept := g.tenants["t"]
	g.mu.Unlock()
	if kept {
		t.Fatal("drained removed tenant was retained")
	}
}

func TestTenantValidation(t *testing.T) {
	cases := []struct {
		name string
		cfgs []TenantConfig
	}{
		{"empty", nil},
		{"no name", []TenantConfig{{Keys: []string{"k"}}}},
		{"no keys", []TenantConfig{{Name: "a"}}},
		{"empty key", []TenantConfig{{Name: "a", Keys: []string{""}}}},
		{"dup name", []TenantConfig{{Name: "a", Keys: []string{"k1"}}, {Name: "a", Keys: []string{"k2"}}}},
		{"shared key", []TenantConfig{{Name: "a", Keys: []string{"k"}}, {Name: "b", Keys: []string{"k"}}}},
		{"bad lane", []TenantConfig{{Name: "a", Keys: []string{"k"}, Lane: "express"}}},
		{"negative quota", []TenantConfig{{Name: "a", Keys: []string{"k"}, Quota: QuotaConfig{MaxConcurrent: -1}}}},
	}
	for _, tc := range cases {
		if err := ValidateTenants(tc.cfgs); err == nil {
			t.Errorf("%s: validation must fail", tc.name)
		}
	}
	good := []byte(`{"tenants": [
		{"name": "acme", "keys": ["k-acme"], "lane": "bulk",
		 "quota": {"max_concurrent": 4, "stage_seconds": 30.5, "window_seconds": 60}},
		{"name": "beta", "keys": ["k-beta-1", "k-beta-2"]}
	]}`)
	cfgs, err := ParseTenants(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Lane != LaneBulk || cfgs[0].Quota.MaxConcurrent != 4 {
		t.Fatalf("parsed %+v", cfgs)
	}
}

func TestQuotaMergeDefaults(t *testing.T) {
	def := QuotaConfig{MaxConcurrent: 8, StageSeconds: 60, WindowSeconds: 120}
	got := QuotaConfig{MaxConcurrent: 2}.merge(def)
	if got.MaxConcurrent != 2 || got.StageSeconds != 60 || got.WindowSeconds != 120 {
		t.Fatalf("merged = %+v", got)
	}
	zero := QuotaConfig{}.merge(QuotaConfig{})
	if zero.WindowSeconds != 60 {
		t.Fatalf("default window = %d, want 60", zero.WindowSeconds)
	}
}
