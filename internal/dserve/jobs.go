package dserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// Job states; only a held job (SubmitOptions.Hold) can end cancelled.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job tracks one submitted batch through the service. Accessors return
// snapshots; the Result pointer is immutable once the job is done.
type Job struct {
	ID  string
	Req JobRequest

	State     string
	Err       string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	// StagesDone counts completed plan nodes of the running batch;
	// StagesTotal is fixed once the stage graph is planned. Together they
	// derive the monotone progress fraction the status endpoint reports.
	StagesDone  int
	StagesTotal int

	Result *BatchResult

	// events is the job's live progress stream (state transitions plus one
	// event per completed stage); subscribers attach via Service.JobEvents.
	events *EventLog
	// opts carries the submitter's hooks into the async run; opts.Hold
	// stays set while the job waits for Release.
	opts SubmitOptions

	// manifest is the durable form of a persisted job; for a job restored
	// from the store it stands in for Result until first use reruns it
	// (see Service.ResultOf).
	manifest *jobManifest
	// refs are the store objects this job retains; released when the job
	// is evicted.
	refs []storeRef
	// pins counts in-flight readers (an open fetch-library stream, a
	// restore in progress). A pinned job is never evicted, so
	// eviction cannot release store objects out from under a response.
	pins int
}

// ErrBusy is returned by Submit when the service already holds its maximum
// number of in-flight (queued or running) jobs; the HTTP layer maps it to
// 503 so clients back off instead of growing the job table unboundedly.
var ErrBusy = errors.New("dserve: too many in-flight jobs, retry later")

// ErrClosed is returned by Submit once Close has begun.
var ErrClosed = errors.New("dserve: service is shut down")

// Incremental-submit errors; the HTTP layer maps ErrUnknownBase to 404 and
// ErrBaseNotReady to 409.
var (
	ErrUnknownBase  = errors.New("dserve: unknown base job")
	ErrBaseNotReady = errors.New("dserve: base job has not completed")
)

// SubmitOptions carry a submitter's hooks into a job's async run. The
// gateway admits into held jobs (Hold), charges per-tenant stage-seconds
// (Observer), and settles its accounting on OnDone and OnEvict.
type SubmitOptions struct {
	// Observer, when non-nil, additionally receives the batch's per-stage
	// outcomes (the service's metrics observer and the job's progress
	// tracking always run). Must be safe for concurrent use.
	Observer plan.Observer
	// OnDone, when non-nil, is called once with a terminal-state snapshot
	// of the job after it finishes (done or failed), with no service locks
	// held; the job is not evicted before it returns. OnEvict likewise
	// gets the job's ID once MaxJobs pruning has dropped the job.
	OnDone  func(*Job)
	OnEvict func(id string)
	// Hold queues the job unstarted until Release; Withdraw ends it
	// cancelled (without OnDone) and Close fails it.
	Hold bool
}

// Submit validates the request, queues a job, and runs it asynchronously on
// a service goroutine. The returned snapshot reflects the queued state;
// poll Job(id) for progress. Returns ErrBusy when MaxInFlight jobs are
// already queued or running — the one retention surface MaxJobs pruning
// cannot touch (it only evicts terminal jobs).
func (s *Service) Submit(req JobRequest) (*Job, error) {
	return s.SubmitWith(req, SubmitOptions{})
}

// SubmitWith is Submit with per-job hooks attached.
func (s *Service) SubmitWith(req JobRequest, opts SubmitOptions) (*Job, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if req.Base != "" {
		if err := s.checkBaseLocked(req); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	inflight := 0
	for _, j := range s.jobs {
		if j.State == JobQueued || j.State == JobRunning {
			inflight++
		}
	}
	if inflight >= s.cfg.MaxInFlight {
		s.mu.Unlock()
		s.Counters.Add("jobs.rejected_busy", 1)
		return nil, ErrBusy
	}
	s.seq++
	job := &Job{
		ID:        fmt.Sprintf("job-%04d", s.seq),
		Req:       req,
		State:     JobQueued,
		Submitted: time.Now(),
		events:    NewEventLog(),
		opts:      opts,
	}
	job.events.Append(JobEvent{Type: EventState, State: JobQueued})
	if req.Base != "" {
		// Pin the base while this job exists in a non-terminal state:
		// checkBaseLocked just proved it is present and done, and the pin
		// closes the window in which eviction could release it (and its
		// store objects) between acceptance and the async run. run()
		// releases it on completion.
		s.jobs[req.Base].pins++
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	if !opts.Hold {
		s.wg.Add(1)
		go s.run(job)
	}
	snap := *job
	s.mu.Unlock()

	s.Counters.Add("jobs.submitted", 1)
	return &snap, nil
}

// Release starts a held job and reports whether it was held.
func (s *Service) Release(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[id]
	if job == nil || !job.opts.Hold {
		return false
	}
	job.opts.Hold = false
	s.wg.Add(1)
	go s.run(job)
	return true
}

// Withdraw ends a held job unrun, its stream [queued, cancelled], and
// reports whether it was held; it is pruned like any terminal job.
func (s *Service) Withdraw(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[id]
	if job == nil || !job.opts.Hold {
		return false
	}
	s.endHeldLocked(job, JobCancelled, "")
	s.Counters.Add("jobs.cancelled", 1)
	return true
}

// endHeldLocked makes a held job terminal without running it.
func (s *Service) endHeldLocked(job *Job, state, msg string) {
	job.opts.Hold = false
	job.State, job.Err, job.Finished = state, msg, time.Now()
	s.unpinBaseLocked(job)
	job.events.Append(JobEvent{Type: EventState, State: state, Error: msg, Terminal: true})
}

// unpinBaseLocked releases the base pin SubmitWith took.
func (s *Service) unpinBaseLocked(job *Job) {
	if bj := s.jobs[job.Req.Base]; job.Req.Base != "" && bj != nil {
		bj.pins--
	}
}

// progressObserver mirrors one job's completed plan nodes into its stage
// counters and event stream.
type progressObserver struct {
	s   *Service
	job *Job
}

func (o progressObserver) StageSource(stage string, src plan.Source, _ time.Duration) {
	// The event is appended while still holding s.mu so two concurrently
	// completing stages cannot publish their counters out of order (the
	// stream's documented invariant is that StagesDone never decreases).
	// EventLog.Append takes only its own lock and never blocks.
	o.s.mu.Lock()
	defer o.s.mu.Unlock()
	o.job.StagesDone++
	o.job.events.Append(JobEvent{
		Type: EventStage, Stage: stage, Hit: src.Hit(),
		StagesDone: o.job.StagesDone, StagesTotal: o.job.StagesTotal,
	})
}

func (s *Service) run(job *Job) {
	defer s.wg.Done()
	s.mu.Lock()
	job.State = JobRunning
	job.Started = time.Now()
	s.mu.Unlock()
	job.events.Append(JobEvent{Type: EventState, State: JobRunning})

	obs := plan.MultiObserver(progressObserver{s: s, job: job}, job.opts.Observer)
	onPlanned := func(total int) {
		s.mu.Lock()
		job.StagesTotal = total
		s.mu.Unlock()
	}
	res, err := s.runBatch(job.Req, BatchOptions{Observer: obs, OnPlanned: onPlanned})

	// Persist before publishing the terminal state (file I/O stays outside
	// s.mu): once the job reads as done, its manifest and pinned objects
	// are already durable.
	finished := time.Now()
	var manifest *jobManifest
	var refs []storeRef
	if s.store != nil {
		if err == nil {
			manifest, refs = s.persistJob(job, res, finished)
		} else {
			manifest, refs = s.persistFailedJob(job, err, finished)
		}
	}

	s.mu.Lock()
	job.Finished = finished
	job.manifest = manifest
	job.refs = refs
	if err != nil {
		job.State = JobFailed
		job.Err = err.Error()
	} else {
		job.State = JobDone
		job.Result = res
	}
	s.unpinBaseLocked(job)
	wall := job.Finished.Sub(job.Started)
	snap := *job
	// Older jobs are pruned with the terminal state, so whoever sees it
	// sees the table bounded; this one is pinned until OnDone returns.
	job.pins++
	evicted := s.pruneJobsLocked()
	s.mu.Unlock()
	notifyEvicted(evicted)

	if err != nil {
		s.Counters.Add("jobs.failed", 1)
	} else {
		s.Counters.Add("jobs.completed", 1)
	}
	s.Timings.Observe("job.wall", wall)

	// Terminal event last: subscribers that see it know the stream is
	// complete, every stage event precedes it and the job is counted.
	job.events.Append(JobEvent{
		Type: EventState, State: snap.State, Error: snap.Err, Terminal: true,
		StagesDone: snap.StagesDone, StagesTotal: snap.StagesTotal,
	})
	s.done(job, &snap)
}

// done calls OnDone, then lifts the pin that kept the job from eviction.
func (s *Service) done(job *Job, snap *Job) {
	if job.opts.OnDone != nil {
		job.opts.OnDone(snap)
	}
	s.mu.Lock()
	job.pins--
	evicted := s.pruneJobsLocked()
	s.mu.Unlock()
	notifyEvicted(evicted)
}

// notifyEvicted runs OnEvict for jobs pruned while s.mu was held.
func notifyEvicted(jobs []*Job) {
	for _, j := range jobs {
		if j.opts.OnEvict != nil {
			j.opts.OnEvict(j.ID)
		}
	}
}

// pruneJobsLocked evicts the oldest terminal jobs beyond MaxJobs — each
// completed job holds its debloated libraries and pins its records, so
// retention must be bounded. Queued, running, and pinned jobs are never
// evicted: a pin marks an in-flight reader (an open fetch-library stream),
// and evicting under it would release the store objects the response is
// still being served from.
// Evicting a persisted job releases its store references and deletes its
// manifest, so a future boot does not resurrect it. Callers hold s.mu, and
// pass the result to notifyEvicted once they have released it.
func (s *Service) pruneJobsLocked() []*Job {
	excess := -s.cfg.MaxJobs
	for _, id := range s.order {
		if st := s.jobs[id].State; st != JobQueued && st != JobRunning {
			excess++
		}
	}
	if excess <= 0 {
		return nil
	}
	// The newest MaxJobs terminal jobs always stay; of the `excess` older
	// ones, pinned jobs are over-retained until their streams close (the
	// release re-runs this prune).
	var evicted []*Job
	kept := s.order[:0]
	for _, id := range s.order {
		if j := s.jobs[id]; excess > 0 && j.State != JobQueued && j.State != JobRunning {
			excess--
			if j.pins == 0 {
				evicted = append(evicted, j)
				s.releaseJobLocked(j)
				delete(s.jobs, id)
				s.Counters.Add("jobs.evicted", 1)
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
	return evicted
}

// releaseJobLocked drops the job's store references and deletes its
// manifest. Callers hold s.mu.
func (s *Service) releaseJobLocked(job *Job) {
	if s.store == nil {
		return
	}
	for _, ref := range job.refs {
		s.store.Release(ref.Kind, ref.Key)
	}
	job.refs = nil
	if job.manifest != nil {
		s.store.Delete(kindJob, job.ID)
		job.manifest = nil
	}
}

// checkBaseLocked validates an incremental request's base reference at
// submission time: the base job must exist, be done, and agree on
// everything that shapes the batch (the workload superset check runs in
// DebloatBatch, identity-compared, once the install is materialized).
// Callers hold s.mu.
func (s *Service) checkBaseLocked(req JobRequest) error {
	base, ok := s.jobs[req.Base]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownBase, req.Base)
	}
	if base.State != JobDone {
		return fmt.Errorf("%w: %s is %s", ErrBaseNotReady, req.Base, base.State)
	}
	if base.Req.IngestDir != req.IngestDir {
		return fmt.Errorf("dserve: incremental request must match base %s on ingest_dir", req.Base)
	}
	if req.IngestDir == "" {
		reqFW, _ := ResolveFramework(req.Framework) // req passed Validate already
		baseFW, err := ResolveFramework(base.Req.Framework)
		if err != nil || reqFW != baseFW || base.Req.TailLibs != req.TailLibs {
			return fmt.Errorf("dserve: incremental request must match base %s on framework, tail_libs, max_steps, and skip_verify", req.Base)
		}
	}
	if s.effectiveSteps(base.Req.MaxSteps) != s.effectiveSteps(req.MaxSteps) ||
		base.Req.SkipVerify != req.SkipVerify {
		return fmt.Errorf("dserve: incremental request must match base %s on framework, tail_libs, max_steps, and skip_verify", req.Base)
	}
	return nil
}

// effectiveSteps normalizes a request step cap the way DebloatBatch does:
// 0 takes the service default, negative means uncapped. Comparing
// normalized values keeps an omitted max_steps compatible with an
// explicitly spelled-out default.
func (s *Service) effectiveSteps(v int) int {
	if v == 0 {
		return s.cfg.MaxSteps
	}
	if v < 0 {
		return 0
	}
	return v
}

// runBatch materializes the request (shared install, member workloads,
// incremental base) and executes the batch under opt, which carries the
// job's progress hooks; the request's step cap and verification mode are
// filled in here.
func (s *Service) runBatch(req JobRequest, opt BatchOptions) (*BatchResult, error) {
	var in *mlframework.Install
	var fw string
	var err error
	if req.IngestDir != "" {
		in, err = s.ingestInstall(req.IngestDir)
	} else {
		if fw, err = ResolveFramework(req.Framework); err != nil {
			return nil, err
		}
		in, err = s.install(fw, req.TailLibs, nil)
	}
	if err != nil {
		return nil, err
	}
	ws := make([]mlruntime.Workload, len(req.Workloads))
	for i, sp := range req.Workloads {
		if ws[i], err = sp.Workload(in); err != nil {
			return nil, fmt.Errorf("dserve: workload %d: %w", i, err)
		}
	}
	opt.MaxSteps, opt.SkipVerify = req.MaxSteps, req.SkipVerify
	if req.Base != "" {
		// The base has been pinned since Submit accepted the request, so
		// eviction cannot have released it or the store objects its stage
		// keys absorb through.
		baseRes, err := s.ResultOf(req.Base)
		if err != nil {
			return nil, fmt.Errorf("dserve: incremental base %s: %w", req.Base, err)
		}
		opt.Base, opt.BaseID = baseRes, req.Base
	}
	res, err := s.DebloatBatch(in, ws, opt)
	if err == nil && req.IngestDir == "" {
		// The install goes, behind the batch, to the owners its profiles
		// went to. An ingested install is not resident under a spec key, and
		// a peer cannot re-read a tree it does not have: each node ingests
		// it itself.
		s.offerInstall(fw, req.TailLibs, res)
	}
	return res, err
}

// Job returns a snapshot of the job, or nil when unknown.
func (s *Service) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil
	}
	snap := *job
	return &snap
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		snap := *s.jobs[id]
		out = append(out, &snap)
	}
	return out
}

// persistJob makes a completed job durable: it ensures every referenced
// object exists in the store, pins it, and writes the job manifest. A
// failure at any step degrades to a non-durable job (counted, not fatal) —
// the in-memory result still serves until eviction.
func (s *Service) persistJob(job *Job, res *BatchResult, finished time.Time) (*jobManifest, []storeRef) {
	abandon := func(held []storeRef) (*jobManifest, []storeRef) {
		for _, ref := range held {
			s.store.Release(ref.Kind, ref.Key)
		}
		s.Counters.Add("jobs.persist_failed", 1)
		return nil, nil
	}
	m, err := manifestOf(job, res)
	if err != nil {
		return abandon(nil)
	}
	m.Finished = manifestTime{finished}

	// Wait for the write-behind of the records this manifest references:
	// it has been overlapping its disk writes with the batch's compute, so
	// by now most are already in the store and Retain succeeds without the
	// synchronous re-spill below. Verify records and profile records are
	// not waited on; no manifest names them.
	// The persist.* timings split the durability tail the same way the
	// stage.* timings split the batch: flush (write-behind wait), retain
	// (pin sweep plus any re-spill), sync (object commit sweep), manifest
	// (manifest publish and its flush).
	t0 := time.Now()
	s.awaitRecords(m.Libs)
	s.Timings.Observe("persist.flush", time.Since(t0))
	t0 = time.Now()

	var held []storeRef
	// Pin each referenced record, re-spilling any the write-behind never
	// wrote or the store already evicted. Retain-then-spill keeps
	// the window in which an unpinned object can vanish to the few
	// instructions between the spill and the retry.
	for i, ml := range m.Libs {
		if !s.store.Retain(kindRecord, ml.Key) {
			if spillResult(s.store, ml.Key, &negativa.LibDebloat{Report: res.Libs[i]}) != nil || !s.store.Retain(kindRecord, ml.Key) {
				return abandon(held)
			}
		}
		held = append(held, storeRef{kindRecord, ml.Key})
	}
	s.Timings.Observe("persist.retain", time.Since(t0))
	data, err := json.Marshal(m)
	if err != nil {
		return abandon(held)
	}
	// Commit point: flush every store segment holding an object appended
	// above, THEN append the manifest that references them, then flush the
	// manifest. A crash between the two flushes loses the manifest, never a
	// manifest pointing at vanished objects.
	t0 = time.Now()
	s.store.SyncDirs()
	s.Timings.Observe("persist.sync", time.Since(t0))
	t0 = time.Now()
	if err := s.store.Put(kindJob, job.ID, data); err != nil {
		return abandon(held)
	}
	s.store.SyncDirs()
	s.Timings.Observe("persist.manifest", time.Since(t0))
	if !s.store.Retain(kindJob, job.ID) {
		return abandon(held)
	}
	held = append(held, storeRef{kindJob, job.ID})
	s.Counters.Add("jobs.persisted", 1)
	return m, held
}

// persistFailedJob makes a failed job's terminal state durable: a minimal
// manifest (no library references) so a restart keeps answering polls for
// it — and, crucially, never reissues its ID to a different job.
func (s *Service) persistFailedJob(job *Job, jobErr error, finished time.Time) (*jobManifest, []storeRef) {
	m := &jobManifest{
		ID: job.ID, State: JobFailed, Error: jobErr.Error(),
		Submitted: manifestTime{job.Submitted}, Started: manifestTime{job.Started}, Finished: manifestTime{finished},
		Req: job.Req,
	}
	data, err := json.Marshal(m)
	if err != nil {
		return nil, nil
	}
	if err := s.store.Put(kindJob, job.ID, data); err != nil || !s.store.Retain(kindJob, job.ID) {
		s.Counters.Add("jobs.persist_failed", 1)
		return nil, nil
	}
	s.store.SyncDirs()
	return m, []storeRef{{kindJob, job.ID}}
}

// restoreJobs loads persisted job manifests at boot, pinning each job's
// objects and inserting the jobs in their terminal state (done jobs whose
// results are rebuilt on first use, failed jobs with their error). A manifest
// whose referenced objects did not all survive is dropped (and deleted)
// rather than half-restored; its ID still advances the sequence so no
// previously-issued ID is ever reused. Called from NewService before the
// service is shared, but takes s.mu for uniformity.
func (s *Service) restoreJobs() {
	var manifests []*jobManifest
	maxSeq := 0
	s.store.Walk(kindJob, func(key string, _ int64) error {
		// Every manifest key reserves its ID, even if the manifest itself
		// turns out unreadable or unrestorable below.
		if n := jobSeq(key); n > maxSeq {
			maxSeq = n
		}
		raw, ok := s.store.Get(kindJob, key)
		if !ok {
			return nil
		}
		var m jobManifest
		err := json.Unmarshal(raw, &m)
		if err != nil || m.ID != key || (m.state() == JobDone && len(m.Libs) == 0) {
			s.store.Delete(kindJob, key)
			s.Counters.Add("jobs.restore_failed", 1)
			return nil
		}
		manifests = append(manifests, &m)
		return nil
	})
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Submitted.Before(manifests[j].Submitted.Time) })
	// MaxJobs still bounds terminal retention across restarts: keep the
	// newest, drop (and delete) the overflow.
	if len(manifests) > s.cfg.MaxJobs {
		for _, m := range manifests[:len(manifests)-s.cfg.MaxJobs] {
			s.store.Delete(kindJob, m.ID)
			s.Counters.Add("jobs.evicted", 1)
		}
		manifests = manifests[len(manifests)-s.cfg.MaxJobs:]
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range manifests {
		refs := m.refs()
		held := make([]storeRef, 0, len(refs))
		ok := true
		for _, ref := range refs {
			if !s.store.Retain(ref.Kind, ref.Key) {
				ok = false
				break
			}
			held = append(held, ref)
		}
		if !ok {
			for _, ref := range held {
				s.store.Release(ref.Kind, ref.Key)
			}
			s.store.Delete(kindJob, m.ID)
			s.Counters.Add("jobs.restore_failed", 1)
			continue
		}
		job := &Job{
			ID: m.ID, Req: m.Req, State: m.state(), Err: m.Error,
			Submitted: m.Submitted.Time, Started: m.Started.Time, Finished: m.Finished.Time,
			manifest: m, refs: held,
			events: NewEventLog(),
		}
		// A restored job's stream is just its terminal state: per-stage
		// history does not survive a restart (and does not need to — the
		// job is already done).
		job.events.Append(JobEvent{Type: EventState, State: job.State, Error: job.Err, Terminal: true})
		s.jobs[m.ID] = job
		s.order = append(s.order, m.ID)
		s.Counters.Add("jobs.restored", 1)
	}
	if maxSeq > s.seq {
		s.seq = maxSeq
	}
}

// jobSeq parses the numeric suffix of a job ID ("job-0017" → 17) so a
// rebooted service numbers new jobs past its restored ones.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// Typed lookup errors for the result/stream accessors; the HTTP layer maps
// them to status codes.
var (
	ErrUnknownJob  = errors.New("dserve: unknown job")
	ErrJobNotReady = errors.New("dserve: job has no result yet")
	ErrUnknownLib  = errors.New("dserve: job has no such library")
)

// ResultOf returns the job's batch result, rebuilding a restored job's
// result on first use (restore). The job is pinned while it is rebuilt.
func (s *Service) ResultOf(id string) (*BatchResult, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if job.State != JobDone {
		// Queued, running, and failed jobs (including restored failed
		// ones, which carry a manifest but no libraries) have no result.
		s.mu.Unlock()
		return nil, ErrJobNotReady
	}
	if job.Result != nil {
		res := job.Result
		s.mu.Unlock()
		return res, nil
	}
	m := job.manifest
	if m == nil {
		s.mu.Unlock()
		return nil, ErrJobNotReady
	}
	job.pins++
	s.mu.Unlock()

	res, err := s.restore(m)

	s.mu.Lock()
	job.pins--
	if err == nil {
		if job.Result == nil {
			job.Result = res
		} else {
			res = job.Result // another restore won the race
		}
	}
	evicted := s.pruneJobsLocked()
	s.mu.Unlock()
	notifyEvicted(evicted)
	if err != nil {
		s.Counters.Add("jobs.restore_failed", 1)
		return nil, err
	}
	s.Counters.Add("jobs.materialized", 1)
	return res, nil
}

// restore rebuilds a restored done job's result by rerunning its request
// through runBatch, without its base and with verification skipped, since
// the manifest keeps the outcomes. The batch resolves the install as any
// batch does (resident or generated for a spec, re-read from ingest_dir for
// an ingest request), reads the pinned records through the compact stage's
// disk loader and recomputes any that is lost or corrupt. The store carries
// the job's pins on a record it removed to the record the recompute writes,
// so the job keeps holding its records without pinning them again. The
// rerun is accepted only if its install fingerprint and every library's
// name and record key are the manifest's, so a changed install or step cap
// fails rather than serve other images; the manifest's outcome fields stay
// the job's report.
func (s *Service) restore(m *jobManifest) (*BatchResult, error) {
	req := m.Req
	req.Base, req.SkipVerify = "", true
	run, err := s.runBatch(req, BatchOptions{rerun: true})
	if err != nil {
		return nil, fmt.Errorf("dserve: restore %s: %w", m.ID, err)
	}
	if run.InstallFP != m.InstallFP || len(run.Libs) != len(m.Libs) {
		return nil, fmt.Errorf("dserve: restore %s: the install is not the one the job ran against", m.ID)
	}
	for i, ml := range m.Libs {
		if run.Libs[i].Name != ml.Name || run.libKeys[i] != ml.Key {
			return nil, fmt.Errorf("dserve: restore %s: library %s no longer debloats to its recorded result", m.ID, ml.Name)
		}
	}
	return &BatchResult{
		InstallFP:     m.InstallFP,
		Union:         run.Union,
		Workloads:     m.Workloads,
		Libs:          run.Libs,
		byName:        run.byName,
		libKeys:       run.libKeys,
		DetectTime:    time.Duration(m.DetectNS),
		AnalysisTime:  time.Duration(m.AnalysisNS),
		WallTime:      time.Duration(m.WallNS),
		CacheHits:     m.CacheHits,
		CacheMisses:   m.CacheMisses,
		ProfileReuses: m.ProfileReuses,
		VerifySkipped: m.VerifySkipped,
		Incremental:   m.Incremental,
	}, nil
}

// LibStream is an open handle on one debloated library of a completed job.
// It pins the job (and therefore its store objects) until Close, so the
// response can stream without racing job eviction.
type LibStream struct {
	// Size is the image size in bytes (HTTP Content-Length).
	Size    int64
	sparse  *negativa.SparseImage
	release func()
}

// WriteTo streams the debloated image.
func (ls *LibStream) WriteTo(w io.Writer) (int64, error) { return ls.sparse.WriteTo(w) }

// Close releases the job pin. Idempotent.
func (ls *LibStream) Close() {
	if ls.release != nil {
		ls.release()
		ls.release = nil
	}
}

// OpenLibStream opens a debloated-library stream on a completed job,
// holding a reference on the job for the duration of the response — the
// fix for job eviction freeing images an in-flight fetch-library is still
// streaming. Callers must Close the stream.
func (s *Service) OpenLibStream(id, name string) (*LibStream, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrUnknownJob
	}
	if job.State != JobDone {
		s.mu.Unlock()
		return nil, ErrJobNotReady
	}
	job.pins++
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		job.pins--
		// Evictions this pin deferred proceed now.
		evicted := s.pruneJobsLocked()
		s.mu.Unlock()
		notifyEvicted(evicted)
	}
	res, err := s.ResultOf(id)
	if err != nil {
		release()
		return nil, err
	}
	lr := res.Lib(name)
	if lr == nil || lr.Sparse == nil {
		release()
		return nil, ErrUnknownLib
	}
	return &LibStream{Size: lr.Sparse.Len(), sparse: lr.Sparse, release: release}, nil
}

// JobEvents returns the job's buffered progress events with Seq > after,
// whether the stream is terminally complete, and a channel that closes on
// the next append (for blocking long-polls and SSE). ErrUnknownJob when
// the job does not exist.
func (s *Service) JobEvents(id string, after int) ([]JobEvent, bool, <-chan struct{}, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil, ErrUnknownJob
	}
	evs, done, ch := job.events.After(after)
	return evs, done, ch, nil
}
