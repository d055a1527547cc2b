package gateway

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"negativaml/internal/dserve"
	"negativaml/internal/metrics"
	"negativaml/internal/plan"
)

// Lane names. Interactive is the default.
const (
	LaneInteractive = "interactive"
	LaneBulk        = "bulk"
)

// Shed reasons, reported in 429 bodies and counted under
// gateway.shed.<reason>.
const (
	ShedQueueFull    = "queue_full"
	ShedConcurrency  = "concurrency"
	ShedResultBytes  = "result_bytes"
	ShedStageSeconds = "stage_seconds"
)

// Backend is the slice of the serving plane the gateway drives: it admits
// into held backend jobs and releases them as its lanes dispatch.
// *dserve.Service satisfies it; tests substitute fakes. Lock order is
// gateway → backend: the backend calls back (OnDone, OnEvict, Observer)
// with none of its locks held.
type Backend interface {
	SubmitWith(req dserve.JobRequest, opts dserve.SubmitOptions) (*dserve.Job, error)
	Release(id string) bool
	Withdraw(id string) bool
	Job(id string) *dserve.Job
	JobEvents(id string, after int) ([]dserve.JobEvent, bool, <-chan struct{}, error)
	MetricsPayload() map[string]any
}

// Config tunes the gateway. Zero values take the documented defaults.
type Config struct {
	// DispatchSlots caps the held backend jobs released to run at once
	// (default 4).
	DispatchSlots int
	// QueueDepth caps each lane's queued units (default 64); admissions
	// beyond it shed with 429 queue_full. So do admissions beyond the
	// backend's MaxInFlight, which counts held jobs: a backend sized by
	// BackendMaxInFlight never binds first.
	QueueDepth int
	// InteractiveWeight and BulkWeight set the contested drain ratio
	// (defaults 3 and 1).
	InteractiveWeight int
	BulkWeight        int
	// DefaultQuota fills zero fields of every tenant's quota.
	DefaultQuota QuotaConfig
	// PeerPassthrough forwards /v1/peer/* requests to the backend without
	// tenant authentication — node-to-node traffic authenticates with the
	// cluster's shared peer secret, not an API key. Enable it only on
	// clustered nodes; everywhere else the gateway refuses the peer
	// surface outright (404), so tenants cannot reach the backend's
	// analysis-compute or object-transfer routes.
	PeerPassthrough bool
}

func (c Config) withDefaults() Config {
	if c.DispatchSlots <= 0 {
		c.DispatchSlots = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.InteractiveWeight <= 0 {
		c.InteractiveWeight = 3
	}
	if c.BulkWeight <= 0 {
		c.BulkWeight = 1
	}
	return c
}

// BackendMaxInFlight is the backend MaxInFlight that holds both lanes full
// and every dispatch slot running (a job leaves the backend's count before
// its slot frees), so each lane's QueueDepth binds before the backend.
func (c Config) BackendMaxInFlight() int {
	c = c.withDefaults()
	return 2*c.QueueDepth + c.DispatchSlots
}

// Typed errors the HTTP layer maps to status codes, beside dserve's
// ErrUnknownBase, ErrBaseNotReady and ErrClosed, which Submit returns too.
var (
	ErrUnknownJob     = errors.New("gateway: unknown job")
	ErrNotCancellable = errors.New("gateway: job is past cancellation")
	ErrUnknownTenant  = errors.New("gateway: unknown tenant")
)

// ShedError is a load-shedding verdict: the request was refused to protect
// the service (or a quota), and the client should retry after RetryAfter
// seconds. The HTTP layer maps it to 429 with a Retry-After header.
type ShedError struct {
	Reason     string
	RetryAfter int
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("gateway: overloaded (%s), retry after %ds", e.Reason, e.RetryAfter)
}

// tenantState is one tenant's live accounting.
type tenantState struct {
	cfg   TenantConfig
	quota QuotaConfig // cfg.Quota merged with gateway defaults

	inflight    int   // live riders of unfinished jobs, followers included
	resultBytes int64 // retained result bytes across finished jobs

	windowStart time.Time // stage-seconds fixed window
	windowUsed  float64
}

// rider is one admission riding a backend job. Identical in-flight
// requests share the job (coalescing), across tenants; each rider pays its
// own quotas.
type rider struct {
	tenant    string
	lane      string
	coalesced bool
	cancelled bool // withdrawn while the job was held
}

// unit is one backend job as the gateway sees it, with the bytes each live
// rider was charged. It is unsettled while g.units maps its digest to it;
// finish settles it and closes settled.
type unit struct {
	g                *Gateway
	id, digest, lane string
	riders           []*rider
	dispatched       time.Time // zero while held
	settled          chan struct{}
	bytes            int64
}

// leader is the first live rider, charged the job's stage-seconds.
func (u *unit) leader() *rider {
	for _, r := range u.riders {
		if !r.cancelled {
			return r
		}
	}
	return nil
}

// riderOf returns the tenant's rider of the job, a live one first, or nil.
func (u *unit) riderOf(tenant string) *rider {
	var found *rider
	for _, r := range u.riders {
		if r.tenant == tenant && (found == nil || found.cancelled) {
			found = r
		}
	}
	return found
}

// Gateway is the multi-tenant front door. See the package documentation
// for the full model.
type Gateway struct {
	backend Backend
	cfg     Config

	// Counters and Timings hold the gateway's own series, merged into the
	// backend's /v1/metrics payload under "gateway".
	Counters *metrics.CounterSet
	Timings  *metrics.TimingSet

	mu      sync.Mutex
	closed  bool
	tenants map[string]*tenantState
	keys    map[string]string // API key -> tenant name

	jobs             map[string]*unit // the rider index, by job ID, until eviction
	lanes            map[string][]*unit
	servedI, servedB int64
	units            map[string]*unit // unfinished, by request digest
	inflightUnits    int
}

// New builds a gateway over the backend with the given tenant set.
func New(backend Backend, cfg Config, tenants []TenantConfig) (*Gateway, error) {
	g := &Gateway{
		backend:  backend,
		cfg:      cfg.withDefaults(),
		Counters: metrics.NewCounterSet(),
		Timings:  metrics.NewTimingSet(),
		tenants:  map[string]*tenantState{},
		keys:     map[string]string{},
		jobs:     map[string]*unit{},
		lanes:    map[string][]*unit{LaneInteractive: nil, LaneBulk: nil},
		units:    map[string]*unit{},
	}
	if err := g.SetTenants(tenants); err != nil {
		return nil, err
	}
	return g, nil
}

// SetTenants replaces the tenant table (key rotation, quota changes,
// tenant add/remove). Live accounting carries over by tenant name: a
// tenant present before and after the reload keeps its in-flight counts,
// byte charges, and stage-seconds window. Jobs of a removed tenant finish
// but are no longer reachable by any key; the removed tenant's accounting
// is retained (key-less) while any of it is live, so re-adding the tenant
// later resumes from true counts instead of zeroed ones.
func (g *Gateway) SetTenants(cfgs []TenantConfig) error {
	if err := ValidateTenants(cfgs); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	next := make(map[string]*tenantState, len(cfgs))
	keys := make(map[string]string)
	for _, tc := range cfgs {
		ts := g.tenants[tc.Name]
		if ts == nil {
			ts = &tenantState{}
		}
		ts.cfg = tc
		ts.quota = tc.Quota.merge(g.cfg.DefaultQuota)
		next[tc.Name] = ts
		for _, k := range tc.Keys {
			keys[k] = tc.Name
		}
	}
	for name, ts := range g.tenants {
		if _, kept := next[name]; kept {
			continue
		}
		if ts.inflight > 0 || ts.resultBytes > 0 {
			// Removed mid-flight: no key reaches this tenant anymore, but
			// dropping the state would make finish/Cancel decrement a
			// fresh zero (driving inflight negative and over-admitting on a
			// later re-add). Keep it until its charges drain; a future
			// reload re-evaluates.
			ts.cfg.Keys = nil
			next[name] = ts
		}
	}
	g.tenants = next
	g.keys = keys
	g.Counters.Add("gateway.tenant_reloads", 1)
	return nil
}

// Authenticate resolves an API key to its tenant name.
func (g *Gateway) Authenticate(key string) (string, bool) {
	if key == "" {
		return "", false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	name, ok := g.keys[key]
	return name, ok
}

// requestDigest is the coalescing key: SHA-256 over the canonical JSON of
// the validated request (framework resolved; a base is a job ID). Install
// generation is deterministic from the request fields, so equal digests
// mean byte-identical batches; the key is conservative — only logically
// identical requests coalesce.
func requestDigest(req dserve.JobRequest) string {
	if fw, err := dserve.ResolveFramework(req.Framework); err == nil {
		req.Framework = fw
	}
	b, _ := json.Marshal(req)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Submit admits one request for the tenant: validate, check that a base is
// one of the tenant's jobs, enforce quotas, then coalesce onto an
// unfinished identical job or create the backend job held in a lane, and
// return the job's snapshot. Shed verdicts — a full backend included —
// come back as *ShedError.
func (g *Gateway) Submit(tenantName string, req dserve.JobRequest, laneOverride string) (*JobView, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, dserve.ErrClosed
	}
	ts := g.tenants[tenantName]
	if ts == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenantName)
	}
	lane := cmp.Or(laneOverride, ts.cfg.Lane, LaneInteractive)
	if lane != LaneInteractive && lane != LaneBulk {
		return nil, fmt.Errorf("gateway: unknown lane %q (want %s or %s)", lane, LaneInteractive, LaneBulk)
	}
	if req.Base != "" {
		switch r := g.riderLocked(tenantName, req.Base); {
		case r == nil:
			return nil, fmt.Errorf("%w: %q", dserve.ErrUnknownBase, req.Base)
		case r.cancelled:
			return nil, fmt.Errorf("%w: %s is cancelled", dserve.ErrBaseNotReady, req.Base)
		}
	}
	if shed := g.quotaShedLocked(ts); shed != nil {
		g.shedLocked(tenantName, lane, shed)
		return nil, shed
	}

	digest := requestDigest(req)
	u := g.units[digest]
	coalesced := u != nil
	if !coalesced {
		u = &unit{g: g, digest: digest, lane: lane, settled: make(chan struct{})}
		var ds *dserve.Job
		err := dserve.ErrBusy // a full lane sheds like a full backend
		if len(g.lanes[lane]) < g.cfg.QueueDepth {
			ds, err = g.backend.SubmitWith(req, dserve.SubmitOptions{
				Hold:     true,
				Observer: u,
				OnDone:   func(j *dserve.Job) { g.finish(u, j) },
				OnEvict:  func(string) { g.evict(u) },
			})
		}
		if errors.Is(err, dserve.ErrBusy) {
			shed := &ShedError{Reason: ShedQueueFull, RetryAfter: g.wallHintLocked()}
			g.shedLocked(tenantName, lane, shed)
			return nil, shed
		}
		if err != nil {
			return nil, err
		}
		u.id = ds.ID
		g.jobs[u.id] = u
		g.units[digest] = u
		g.lanes[lane] = append(g.lanes[lane], u)
	}
	r := &rider{tenant: tenantName, lane: lane, coalesced: coalesced}
	u.riders = append(u.riders, r)
	ts.inflight++
	g.Counters.Add("gateway.admitted", 1)
	g.Counters.Add("tenant."+tenantName+".admitted", 1)
	g.Counters.Add("lane."+lane+".admitted", 1)
	if coalesced {
		g.Counters.Add("gateway.coalesced", 1)
		g.Counters.Add("tenant."+tenantName+".coalesced", 1)
		g.Counters.Add("lane."+lane+".coalesced", 1)
	}
	view := g.viewLocked(u, r)
	g.dispatchLocked()
	return view, nil
}

// riderLocked returns the tenant's rider of job id, or nil when the job is
// unknown, evicted, or only another tenant's.
func (g *Gateway) riderLocked(tenant, id string) *rider {
	if u := g.jobs[id]; u != nil {
		return u.riderOf(tenant)
	}
	return nil
}

func (g *Gateway) shedLocked(tenant, lane string, shed *ShedError) {
	g.Counters.Add("gateway.shed", 1)
	g.Counters.Add("gateway.shed."+shed.Reason, 1)
	g.Counters.Add("tenant."+tenant+".shed", 1)
	g.Counters.Add("lane."+lane+".shed", 1)
}

// quotaShedLocked returns the shed verdict for one more admission under
// the tenant's quotas, or nil to admit.
func (g *Gateway) quotaShedLocked(ts *tenantState) *ShedError {
	q := ts.quota
	if q.MaxConcurrent > 0 && ts.inflight >= q.MaxConcurrent {
		return &ShedError{Reason: ShedConcurrency, RetryAfter: g.wallHintLocked()}
	}
	if q.MaxResultBytes > 0 && ts.resultBytes >= q.MaxResultBytes {
		return &ShedError{Reason: ShedResultBytes, RetryAfter: g.wallHintLocked()}
	}
	if q.StageSeconds > 0 {
		g.rollWindowLocked(ts)
		if ts.windowUsed >= q.StageSeconds {
			rem := time.Until(ts.windowStart.Add(time.Duration(q.WindowSeconds) * time.Second))
			return &ShedError{Reason: ShedStageSeconds, RetryAfter: ceilSeconds(rem)}
		}
	}
	return nil
}

// rollWindowLocked resets an expired stage-seconds window.
func (g *Gateway) rollWindowLocked(ts *tenantState) {
	w := time.Duration(ts.quota.WindowSeconds) * time.Second
	if ts.windowStart.IsZero() || time.Since(ts.windowStart) >= w {
		ts.windowStart = time.Now()
		ts.windowUsed = 0
	}
}

// wallHintLocked estimates seconds until capacity plausibly frees: the
// recent median unit wall time, clamped to [1, 30].
func (g *Gateway) wallHintLocked() int {
	p50 := g.Timings.Summary("gateway.unit_wall").P50 // milliseconds
	return clampSeconds(int((p50 + 999) / 1000))
}

func ceilSeconds(d time.Duration) int {
	return clampSeconds(int((d + time.Second - 1) / time.Second))
}

func clampSeconds(s int) int {
	if s < 1 {
		return 1
	}
	if s > 30 {
		return 30
	}
	return s
}

// StageSource (the unit is its job's Observer) bills each stage's wall
// time to the leader's stage-seconds window, from backend goroutines.
func (u *unit) StageSource(_ string, _ plan.Source, wall time.Duration) {
	u.g.mu.Lock()
	defer u.g.mu.Unlock()
	ts := u.g.tenants[u.leader().tenant] // a released job keeps its riders
	if ts == nil || ts.quota.StageSeconds <= 0 {
		return
	}
	u.g.rollWindowLocked(ts)
	ts.windowUsed += wall.Seconds()
}

// dispatchLocked releases held jobs into free dispatch slots.
func (g *Gateway) dispatchLocked() {
	for !g.closed && g.inflightUnits < g.cfg.DispatchSlots {
		u := g.pickLocked()
		if u == nil {
			return
		}
		if !g.backend.Release(u.id) {
			continue // the backend is closing; it fails the job itself
		}
		u.dispatched = time.Now()
		g.inflightUnits++
		g.Counters.Add("lane."+u.lane+".dispatched", 1)
	}
}

// pickLocked pops the next unit under weighted round-robin. Served counts
// advance only on contested picks, so a lane idle while the other drains
// does not bank credit for a starvation-sized burst later.
func (g *Gateway) pickLocked() *unit {
	qi, qb := g.lanes[LaneInteractive], g.lanes[LaneBulk]
	var lane string
	switch {
	case len(qi) == 0 && len(qb) == 0:
		return nil
	case len(qb) == 0:
		lane = LaneInteractive
	case len(qi) == 0:
		lane = LaneBulk
	case g.servedI*int64(g.cfg.BulkWeight) <= g.servedB*int64(g.cfg.InteractiveWeight):
		lane, g.servedI = LaneInteractive, g.servedI+1
	default:
		lane, g.servedB = LaneBulk, g.servedB+1
	}
	q := g.lanes[lane]
	u := q[0]
	g.lanes[lane] = append(q[:0:0], q[1:]...)
	return u
}

// finish settles a finished backend job (its OnDone): each live rider's
// in-flight slot frees and its tenant is charged the job's retained
// result bytes, the dispatch slot frees, and the next job is released.
func (g *Gateway) finish(u *unit, j *dserve.Job) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.units, u.digest)
	close(u.settled)
	if j.Result != nil {
		u.bytes = j.Result.RetainedBytes()
	}
	outcome := "gateway.failed"
	if j.State == dserve.JobDone {
		outcome = "gateway.completed"
	}
	for _, r := range u.riders {
		if r.cancelled {
			continue
		}
		g.Counters.Add(outcome, 1)
		if ts := g.tenants[r.tenant]; ts != nil {
			if ts.inflight > 0 { // clamp: a tenant reload may have reset state
				ts.inflight--
			}
			ts.resultBytes += u.bytes
		}
	}
	if !u.dispatched.IsZero() {
		g.Timings.Observe("gateway.unit_wall", time.Since(u.dispatched))
		g.inflightUnits--
	}
	g.dispatchLocked()
}

// evict forgets a job the backend evicted (its OnEvict, which the backend
// runs only after OnDone): the live riders' result-byte charges are
// released and the ID answers 404 from now on.
func (g *Gateway) evict(u *unit) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range u.riders {
		if ts := g.tenants[r.tenant]; ts != nil && !r.cancelled {
			if ts.resultBytes -= u.bytes; ts.resultBytes < 0 {
				ts.resultBytes = 0 // clamp: a tenant reload may have reset state
			}
		}
	}
	delete(g.jobs, u.id)
	g.Counters.Add("gateway.evicted", 1)
}

// Cancel withdraws the tenant's riders from a job still held in its lane.
// The job stays queued for its other riders — the stage-seconds charge
// passes to the next rider when the leader leaves — and is withdrawn from
// the backend (terminal cancelled, never run) when its last rider leaves.
// Released jobs are past cancellation: ErrNotCancellable.
func (g *Gateway) Cancel(tenantName, id string) (*JobView, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	u, r := g.jobs[id], g.riderLocked(tenantName, id)
	if r == nil {
		return nil, ErrUnknownJob
	}
	if r.cancelled || !u.dispatched.IsZero() || g.units[u.digest] != u {
		return nil, ErrNotCancellable
	}
	for _, o := range u.riders {
		if o.tenant == tenantName && !o.cancelled {
			o.cancelled = true
			if ts := g.tenants[tenantName]; ts != nil && ts.inflight > 0 {
				ts.inflight--
			}
			g.Counters.Add("gateway.cancelled", 1)
		}
	}
	if u.leader() == nil {
		g.backend.Withdraw(id)
		delete(g.units, u.digest)
		g.lanes[u.lane] = slices.DeleteFunc(g.lanes[u.lane], func(q *unit) bool { return q == u })
	}
	return g.viewLocked(u, r), nil
}

// JobView is the tenant-facing job status: the backend job's, as the
// tenant's rider sees it, plus the rider's tenancy fields.
type JobView struct {
	ID          string    `json:"id"`
	Tenant      string    `json:"tenant"`
	Lane        string    `json:"lane"`
	State       string    `json:"state"`
	Error       string    `json:"error,omitempty"`
	Coalesced   bool      `json:"coalesced,omitempty"`
	Submitted   time.Time `json:"submitted"`
	Framework   string    `json:"framework"`
	Workloads   int       `json:"workloads"`
	Base        string    `json:"base,omitempty"`
	Progress    float64   `json:"progress"`
	StagesDone  int       `json:"stages_done"`
	StagesTotal int       `json:"stages_total"`
}

// viewLocked snapshots the backend job for rider r; nil once the backend
// no longer holds it. A cancelled rider reads cancelled, at no progress,
// whatever the job does for its other riders. A finished job reads running
// until finish has settled its riders' charges, so a client that sees it
// end is admitted against settled quotas.
func (g *Gateway) viewLocked(u *unit, r *rider) *JobView {
	j := g.backend.Job(u.id)
	if j == nil {
		return nil
	}
	v := &JobView{
		ID: u.id, Tenant: r.tenant, Lane: r.lane, State: j.State, Error: j.Err,
		Coalesced: r.coalesced, Submitted: j.Submitted,
		Framework: j.Req.Framework, Workloads: len(j.Req.Workloads), Base: j.Req.Base,
		Progress: j.Progress(), StagesDone: j.StagesDone, StagesTotal: j.StagesTotal,
	}
	switch {
	case r.cancelled:
		v.State, v.Error, v.Progress, v.StagesDone, v.StagesTotal = dserve.JobCancelled, "", 0, 0, 0
	case g.units[u.digest] == u && j.State != dserve.JobQueued:
		v.State, v.Error = dserve.JobRunning, ""
	}
	return v
}

// Job returns the tenant's job snapshot, or nil when the ID is unknown,
// evicted, or owned by another tenant (indistinguishable by design).
func (g *Gateway) Job(tenant, id string) *JobView {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r := g.riderLocked(tenant, id); r != nil {
		return g.viewLocked(g.jobs[id], r)
	}
	return nil
}

// Jobs returns the tenant's jobs in job ID order, which is the backend's
// admission order.
func (g *Gateway) Jobs(tenant string) []*JobView {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := []*JobView{}
	for _, u := range g.jobs {
		if r := u.riderOf(tenant); r != nil {
			if v := g.viewLocked(u, r); v != nil {
				out = append(out, v)
			}
		}
	}
	// job-NNNN: a longer ID is a later one, equal lengths compare as text.
	slices.SortFunc(out, func(a, b *JobView) int { return cmp.Or(cmp.Compare(len(a.ID), len(b.ID)), strings.Compare(a.ID, b.ID)) })
	return out
}

// JobEvents is the tenant-scoped event-stream accessor, shaped for
// dserve.ServeEvents: every live rider reads the backend job's one log. A
// rider cancelled while the job was held reads [queued, cancelled]. Like
// the status, the terminal event waits until finish has settled the job.
func (g *Gateway) JobEvents(tenant, id string, after int) ([]dserve.JobEvent, bool, <-chan struct{}, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.riderLocked(tenant, id)
	if r == nil {
		return nil, false, nil, ErrUnknownJob
	}
	if r.cancelled {
		evs := []dserve.JobEvent{
			{Seq: 0, Type: dserve.EventState, State: dserve.JobQueued},
			{Seq: 1, Type: dserve.EventState, State: dserve.JobCancelled, Terminal: true},
		}
		return evs[min(max(after+1, 0), len(evs)):], true, nil, nil
	}
	evs, done, ch, err := g.backend.JobEvents(id, after)
	if err != nil {
		return nil, false, nil, ErrUnknownJob
	}
	if u, n := g.jobs[id], len(evs); done && n > 0 && evs[n-1].Terminal && g.units[u.digest] == u {
		return evs[:n-1], false, u.settled, nil
	}
	return evs, done, ch, nil
}

// Upstream returns the backend job a tenant's job runs as — the same ID,
// once it is checked to be the tenant's.
func (g *Gateway) Upstream(tenant, id string) (string, error) {
	if g.Job(tenant, id) == nil {
		return "", ErrUnknownJob
	}
	return id, nil
}

// RetryAfterHint estimates seconds before a queued/running job's next
// poll is worthwhile.
func (g *Gateway) RetryAfterHint() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.wallHintLocked()
}

// MetricsPayload merges the backend's metrics payload with a "gateway"
// section: counters (admitted/shed/coalesced totals plus per-lane
// breakdowns), unit wall timings, lane depths and weights, and live
// per-tenant accounting. The view is scoped to the requesting tenant —
// other tenants' names, counters, and accounting are withheld, so the
// shared metrics route discloses only gateway-wide aggregates plus the
// caller's own numbers.
func (g *Gateway) MetricsPayload(tenant string) map[string]any {
	out := g.backend.MetricsPayload()
	g.mu.Lock()
	lanes := map[string]any{
		LaneInteractive: map[string]any{"queued": len(g.lanes[LaneInteractive]), "weight": g.cfg.InteractiveWeight},
		LaneBulk:        map[string]any{"queued": len(g.lanes[LaneBulk]), "weight": g.cfg.BulkWeight},
	}
	tenants := make(map[string]any, 1)
	if ts := g.tenants[tenant]; ts != nil {
		g.rollWindowLocked(ts)
		tenants[tenant] = map[string]any{
			"inflight":             ts.inflight,
			"result_bytes":         ts.resultBytes,
			"window_stage_seconds": ts.windowUsed,
		}
	}
	inflight := g.inflightUnits
	g.mu.Unlock()
	counters := g.Counters.Snapshot()
	ownPrefix := "tenant." + tenant + "."
	for k := range counters {
		if strings.HasPrefix(k, "tenant.") && !strings.HasPrefix(k, ownPrefix) {
			delete(counters, k)
		}
	}
	out["gateway"] = map[string]any{
		"counters":       counters,
		"timings":        g.Timings.Snapshot(),
		"lanes":          lanes,
		"inflight_units": inflight,
		"tenants":        tenants,
	}
	return out
}

// Close stops admission and dispatch. Jobs still held stay held until the
// backend's Close fails them.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}
