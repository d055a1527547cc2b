package dserve

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/ingest"
	"negativaml/internal/metrics"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// stageObserver mirrors plan-node outcomes into the service's metrics:
// stage.<name>.hits / stage.<name>.misses counters and a stage.<name>
// timing series per stage.
type stageObserver struct {
	c *metrics.CounterSet
	t *metrics.TimingSet
	// names maps each stage to its *stageMetricNames, built the first time
	// the stage finishes a node: every finished node reports, and
	// concatenating the names per node cost a warm batch about 430
	// allocations.
	names *sync.Map
}

// stageMetricNames are one stage's counter and timing names.
type stageMetricNames struct {
	timing, hits, misses, diskHits, peerHits string
}

func (o stageObserver) namesOf(stage string) *stageMetricNames {
	if n, ok := o.names.Load(stage); ok {
		return n.(*stageMetricNames)
	}
	p := "stage." + stage
	n, _ := o.names.LoadOrStore(stage, &stageMetricNames{
		timing: p, hits: p + ".hits", misses: p + ".misses", diskHits: p + ".disk_hits", peerHits: p + ".peer_hits",
	})
	return n.(*stageMetricNames)
}

// StageSource implements plan.Observer: stage.<name>.hits or .misses and
// the stage's timing, and hits are additionally attributed to the tier
// that served them (stage.<name>.disk_hits for castore restores,
// stage.<name>.peer_hits for values a cluster peer served) so /v1/metrics
// can show where reuse actually comes from. A computed compact stage
// counts as analysis.computed — the ground truth for "did this service
// ever re-run locate/compact": the warm-restart tests assert it stays zero
// when every result comes from memory, disk or a peer.
func (o stageObserver) StageSource(stage string, src plan.Source, wall time.Duration) {
	n := o.namesOf(stage)
	if src.Hit() {
		o.c.Add(n.hits, 1)
	} else {
		o.c.Add(n.misses, 1)
	}
	o.t.Observe(n.timing, wall)
	switch src {
	case plan.SourceDisk:
		o.c.Add(n.diskHits, 1)
	case plan.SourcePeer:
		o.c.Add(n.peerHits, 1)
	case plan.SourceComputed:
		if stage == negativa.StageCompact {
			o.c.Add("analysis.computed", 1)
		}
	}
}

// Config sizes the service.
type Config struct {
	// Workers bounds concurrently executing tasks across all jobs
	// (default runtime.NumCPU()).
	Workers int
	// CacheBytes bounds the content-addressed result cache by retained
	// bytes (default 64 MiB). Entries are sparse — a zeroed-range set plus
	// the report — and each distinct original library image they reference
	// is charged once, so the bound covers everything the cache alone can
	// keep alive.
	CacheBytes int64
	// MaxSteps is the default detection/verification step cap applied when
	// a batch does not set one (default 4). Usage coverage saturates within
	// the first steps, so small caps keep service latency low.
	MaxSteps int
	// MaxJobs bounds retained terminal (done/failed) jobs — each completed
	// job holds its debloated libraries (default 256). Running and
	// queued jobs are never evicted.
	MaxJobs int
	// MaxInFlight bounds queued+running jobs; Submit returns ErrBusy
	// beyond it (default 64).
	MaxInFlight int
	// Store, when non-nil, is the disk-backed content-addressed store the
	// service persists through: the three memoized stages gain a disk
	// tier, read through on a memory miss, and completed jobs persist their
	// manifests and pin their records so a restart serves them warm.
	Store *castore.Store
	// RepairInterval, when positive on a store-backed clustered node, runs
	// a background anti-entropy sweep (RepairNow) at that period: locally
	// held stage artifacts are stat-probed on their remote replica owners
	// and streamed wherever absent. Zero disables the loop; RepairNow stays
	// callable either way.
	RepairInterval time.Duration
	// IngestRoot, when non-empty, enables ingestion-mode submissions
	// (JobRequest.IngestDir): requested directories resolve relative to
	// this root and are confined to it. Empty rejects ingestion requests —
	// a node never reads arbitrary paths unless its operator opted in.
	IngestRoot string
}

// Service is the batch-debloat service core: the stage memo's tiers, the
// bounded worker pool, and the job table behind the HTTP front end.
type Service struct {
	cfg Config

	Cache    *ResultCache
	Counters *metrics.CounterSet
	Timings  *metrics.TimingSet
	// pool is the one counting semaphore every batch's plan nodes run
	// under, and the executor the stage memo yields around its waits:
	// concurrent jobs contend for the same Workers slots, in arrival order.
	pool    *plan.Pool
	store   *castore.Store
	cluster *cluster.Cluster
	// stages routes every plan node's content key to its memo tier
	// (profiles, result cache, verify records); observer mirrors stage
	// outcomes into the counter and timing sets.
	stages   *StageMemo
	observer plan.Observer

	mu           sync.Mutex
	jobs         map[string]*Job
	order        []string
	seq          int
	installs     map[string]*installSlot
	installOrder []string
	closed       bool
	wg           sync.WaitGroup
	// replWG tracks the write-behind's goroutines (repair.go): writeSem
	// bounds its local writers. Under writeMu, pendingRecords (signalled by
	// writesDone) counts each record's in-flight local writes for
	// persistJob, and writeBack holds each remote owner's queue until a
	// batch ends. repairStop/repairWG manage the anti-entropy loop.
	replWG         sync.WaitGroup
	writeSem       chan struct{}
	writeMu        sync.Mutex
	writesDone     *sync.Cond
	pendingRecords map[string]int
	writeBack      map[string]*pendingPush
	repairStop     chan struct{}
	repairWG       sync.WaitGroup
}

type installSlot struct {
	once sync.Once
	in   *mlframework.Install
	err  error
	// fp is the install's fingerprint and generated whether this node built
	// it (rather than receiving it), both set under Service.mu once the
	// slot resolved: only a generated install is pushed on, and only when
	// fp is the batch's. offered lists the owners it was pushed to.
	fp        string
	generated bool
	offered   []string
}

// NewService builds a service from the config, applying defaults.
func NewService(cfg Config) *Service {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.CacheBytes < 1 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxSteps < 1 {
		cfg.MaxSteps = 4
	}
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = 256
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 64
	}
	counters := metrics.NewCounterSet()
	s := &Service{
		cfg:      cfg,
		Cache:    NewResultCache(cfg.CacheBytes, counters),
		Counters: counters,
		Timings:  metrics.NewTimingSet(),
		pool:     plan.NewPool(cfg.Workers),
		jobs:     map[string]*Job{},
		installs: map[string]*installSlot{},

		writeSem:       make(chan struct{}, spillConcurrency),
		pendingRecords: map[string]int{},
		writeBack:      map[string]*pendingPush{},
	}
	s.writesDone = sync.NewCond(&s.writeMu)
	// Every node writes behind through this hook: its disk tier and, on a
	// ring, its replica owners.
	s.stages = NewStageMemo(s.Cache, counters)
	s.stages.writeStage = s.writeBehind
	s.observer = stageObserver{c: counters, t: s.Timings, names: &sync.Map{}}
	if cfg.Store != nil {
		// Warm-restart wiring: the three memoized stages gain their disk
		// tier, and persisted job manifests come back as done jobs whose
		// results are rebuilt on first use.
		s.store = cfg.Store
		s.stages.store = cfg.Store
		s.restoreJobs()
	}
	return s
}

// Store returns the attached content-addressed store, or nil.
func (s *Service) Store() *castore.Store { return s.store }

// AttachCluster joins the service to a dserve peer group: detect, compact
// and verifyrun stages gain the owning-peer memo tier, the /v1/peer/* routes
// start answering with this node's tiers, and /v1/metrics grows the peer
// section. Call before serving; the service never detaches a cluster.
func (s *Service) AttachCluster(c *cluster.Cluster) {
	s.cluster = c
	s.stages.AttachCluster(c)
	if s.store != nil && s.cfg.RepairInterval > 0 {
		s.repairStop = make(chan struct{})
		s.repairWG.Add(1)
		go s.repairLoop(s.repairStop)
	}
}

// Cluster returns the attached peer group, or nil for a standalone node.
func (s *Service) Cluster() *cluster.Cluster { return s.cluster }

// Workers returns the pool's concurrency bound.
func (s *Service) Workers() int { return s.pool.Workers() }

// Close drains the service: no new submissions are accepted, held jobs
// fail, and Close returns once every running job has finished and every
// write-behind has settled, locally and on its peers — so a store closed
// after Close holds every result the memory tier ever took. An attached cluster's membership plane stops too
// (without announcing a leave; use LeaveCluster first for graceful
// departure).
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	stop := s.repairStop
	s.repairStop = nil
	var held []*Job
	for _, id := range s.order {
		if j := s.jobs[id]; j.opts.Hold {
			s.endHeldLocked(j, JobFailed, ErrClosed.Error())
			j.pins++ // released by done
			held = append(held, j)
		}
	}
	s.mu.Unlock()
	for _, j := range held {
		s.done(j, s.Job(j.ID))
	}
	if stop != nil {
		close(stop)
	}
	s.repairWG.Wait()
	s.wg.Wait()
	s.replWG.Wait()
	if s.cluster != nil {
		s.cluster.Close()
	}
}

// BatchOptions configure one multi-workload debloat batch.
type BatchOptions struct {
	// MaxSteps caps detection and verification runs: 0 applies the service
	// default, a negative value runs the full dataset uncapped.
	MaxSteps int
	// SkipVerify skips the per-member verification re-runs.
	SkipVerify bool
	// Base, when non-nil, makes the batch incremental: the member set must
	// be a superset of the base batch's (by workload identity) on the same
	// install with the same step cap and verification mode. Base members'
	// verification outcomes carry over — the superset union retains
	// everything the base union did, so base members stay verified by
	// construction — and only fresh members re-run; unchanged libraries
	// absorb through their unchanged stage keys.
	Base *BatchResult
	// BaseID labels the base batch (the base job's ID) for reporting.
	BaseID string
	// Observer, when non-nil, additionally receives this batch's per-stage
	// outcomes (alongside the service's global metrics observer) — the hook
	// job progress streams and the gateway's stage-seconds accounting hang
	// off.
	Observer plan.Observer
	// OnPlanned, when non-nil, is called once with the batch's total stage
	// count after the graph is built and before any stage executes — the
	// denominator for progress reporting.
	OnPlanned func(totalStages int)
	// rerun marks a restore's rerun of a done job (Service.restore): no
	// client sent it, so batches.completed and batch.wall leave it out.
	rerun bool
}

// IncrementalStats summarizes what an incremental batch absorbed from its
// base.
type IncrementalStats struct {
	// BaseID is the base job this batch extended.
	BaseID string `json:"base_id"`
	// AbsorbedLibs counts libraries whose compact-stage key matches a base
	// library's — the union delta left them untouched. DeltaLibs counts the
	// rest (their compact stages were re-resolved, hitting the memo only if
	// some other batch already computed them).
	AbsorbedLibs int `json:"absorbed_libs"`
	DeltaLibs    int `json:"delta_libs"`
	// CarriedVerifications counts base members whose verification outcome
	// carried over without a re-run.
	CarriedVerifications int `json:"carried_verifications"`
}

// WorkloadOutcome is one member workload's slice of a batch result.
type WorkloadOutcome struct {
	Name     string
	Identity string
	// RefDigest is the workload's reference output digest from its profiled
	// run; Verified reports whether the union-debloated install reproduced
	// it.
	RefDigest uint64
	Verified  bool
	// DetectTime is the profiled run's virtual time. ProfileReused marks
	// profiles served from the detect tiers (no run executed in this batch).
	DetectTime    time.Duration
	ProfileReused bool
}

// BatchResult is the output of one union-debloat batch: one set of
// compacted libraries serving every member workload.
type BatchResult struct {
	// InstallFP is the install fingerprint the batch ran against.
	InstallFP string
	// Union is the merged profile the libraries were debloated against.
	Union *negativa.Profile
	// Workloads holds per-member outcomes in submission order.
	Workloads []WorkloadOutcome
	// Libs holds one report per library in install load order.
	Libs []*negativa.LibraryReport
	// byName indexes Libs by name, built once when the batch assembles its
	// reports (Lib falls back to a scan for hand-built results).
	byName map[string]*negativa.LibraryReport

	// DetectTime sums the virtual profiled-run times of freshly detected
	// members (detect hits cost nothing); AnalysisTime sums virtual
	// locate+compact time of cache misses (hits cost nothing). Their sum is
	// the batch's virtual end-to-end debloating cost.
	DetectTime   time.Duration
	AnalysisTime time.Duration
	// CacheHits / CacheMisses count this batch's per-library cache
	// outcomes; ProfileReuses counts members whose detect hit.
	CacheHits     int
	CacheMisses   int
	ProfileReuses int
	// libKeys holds the compact-stage hash of each entry of Libs,
	// parallel to it — the references a persisted job manifest records.
	// Empty for hand-built results, which then cannot be persisted.
	libKeys []string
	// Incremental summarizes base absorption; nil for full batches.
	Incremental *IncrementalStats
	// VerifySkipped records that the batch ran with SkipVerify: no member
	// Verified flag carries information.
	VerifySkipped bool
	// WallTime is the real elapsed time of the batch.
	WallTime time.Duration
}

// EndToEnd is the batch's virtual debloating time (the paper's Table 8
// metric, extended to batches).
func (r *BatchResult) EndToEnd() time.Duration { return r.DetectTime + r.AnalysisTime }

// RetainedBytes sums the batch's debloated library image bytes — what a
// node keeps in memory (and a front-door result quota charges) while the
// job is retained.
func (r *BatchResult) RetainedBytes() int64 {
	var n int64
	for _, lr := range r.Libs {
		if lr.Sparse != nil {
			n += lr.Sparse.Len()
		}
	}
	return n
}

// DebloatedLibs materializes the compacted images keyed by library name.
// Images are built lazily at call time; batch results and cache entries
// only hold sparse range sets.
func (r *BatchResult) DebloatedLibs() map[string][]byte {
	out := make(map[string][]byte, len(r.Libs))
	for _, lr := range r.Libs {
		out[lr.Name] = lr.Debloated()
	}
	return out
}

// Lib returns the report for the named library, or nil.
func (r *BatchResult) Lib(name string) *negativa.LibraryReport {
	if r.byName != nil {
		return r.byName[name]
	}
	for _, lr := range r.Libs {
		if lr.Name == name {
			return lr
		}
	}
	return nil
}

// Aggregate sums the per-library reports (one Table 2 row for the union).
func (r *BatchResult) Aggregate() negativa.Totals {
	return (&negativa.Result{Libs: r.Libs}).Aggregate()
}

// AllVerified reports whether every member workload reproduced its
// reference digest (vacuously true when verification was skipped).
func (r *BatchResult) AllVerified() bool {
	if r.VerifySkipped {
		return true
	}
	for i := range r.Workloads {
		if !r.Workloads[i].Verified {
			return false
		}
	}
	return true
}

// DebloatBatch union-debloats one install against a workload set by running
// it as a negativa.Batch — per-member detect nodes feed a union node, the
// union feeds one compact node per library, and the compacted set feeds a
// verify probe, the clone it may ask for, and per-member verification nodes
// — with the service's tiers passed in: a batch memo over the stage memo
// (profiles, byte-bounded cache, verify records, content-addressed store),
// its verify probe, and, when clustered, the batch prefetch. With opt.Base set the batch is
// incremental: base members' verifications carry over and only the union
// delta recomputes. Every workload must reference in as its install.
func (s *Service) DebloatBatch(in *mlframework.Install, workloads []mlruntime.Workload, opt BatchOptions) (*BatchResult, error) {
	start := time.Now()
	if in == nil {
		return nil, errors.New("dserve: nil install")
	}
	if len(workloads) == 0 {
		return nil, errors.New("dserve: batch has no workloads")
	}
	for i := range workloads {
		if workloads[i].Install != in {
			return nil, fmt.Errorf("dserve: workload %q does not reference the batch install", workloads[i].Name)
		}
	}
	maxSteps := s.effectiveSteps(opt.MaxSteps)
	b := negativa.NewBatch(in, workloads, maxSteps)
	fp, ids := b.Fingerprint, b.IDs

	// Incremental pre-flight: the base must cover this batch's install and
	// verification mode, and every base member must reappear (identity-
	// compared) — a shrunken set would silently drop coverage.
	carried := make([]bool, len(workloads))
	baseVerified := map[string]bool{}
	if opt.Base != nil {
		base := opt.Base
		if base.InstallFP != fp {
			return nil, fmt.Errorf("dserve: incremental base ran against install %.12s…, not %.12s…", base.InstallFP, fp)
		}
		if base.VerifySkipped != opt.SkipVerify {
			return nil, errors.New("dserve: incremental batch verification mode differs from its base")
		}
		newIDs := make(map[string]bool, len(ids))
		for _, id := range ids {
			newIDs[id] = true
		}
		for i := range base.Workloads {
			o := &base.Workloads[i]
			if !newIDs[o.Identity] {
				return nil, fmt.Errorf("dserve: incremental batch is not a superset of its base: member %q missing", o.Name)
			}
			baseVerified[o.Identity] = o.Verified
		}
		if !opt.SkipVerify {
			for i, id := range ids {
				if _, ok := baseVerified[id]; ok {
					// The superset union retains everything the base union
					// did, so base members stay verified by construction;
					// their recorded outcome carries over without a re-run.
					carried[i] = true
				}
			}
		}
	}

	// The tiers, passed in as hooks. The prefetch and the verify probe keep
	// what they find in the batch's own memo, which hands it to the node
	// that asks for it.
	memo := newBatchMemo(s.stages)
	// The write-back goes out once the run returns, failed or not.
	defer s.flushWriteBack()
	b.Verify = make([]bool, len(workloads))
	for i := range b.Verify {
		b.Verify[i] = !opt.SkipVerify && !carried[i]
	}
	b.ProbeVerify = memo.probeVerify
	if s.cluster != nil {
		b.Prefetch = func(slot plan.Executor, keys []plan.Key, hints []any) {
			items := make([]prefetchItem, len(keys))
			for i, k := range keys {
				items[i].key = k
				if hints != nil {
					items[i].hint = hints[i]
				}
			}
			memo.PrefetchLookups(slot, items)
		}
	}
	run, err := b.Run(s.pool, memo, plan.MultiObserver(s.observer, opt.Observer), opt.OnPlanned)
	if err != nil {
		return nil, err
	}
	if run.Cloned() {
		s.Counters.Add("verify.clones", 1)
	}

	// ---- Assembly ----
	n := len(in.LibNames)
	res := &BatchResult{
		InstallFP: fp, Union: run.Union(), VerifySkipped: opt.SkipVerify,
		Workloads: make([]WorkloadOutcome, len(workloads)),
		Libs:      make([]*negativa.LibraryReport, n), libKeys: make([]string, n),
		byName: make(map[string]*negativa.LibraryReport, n),
	}
	for i := range res.Workloads {
		p, reused := run.Profile(i)
		o := &res.Workloads[i]
		*o = WorkloadOutcome{
			Name: workloads[i].Name, Identity: ids[i],
			RefDigest: p.RunResult.Digest, DetectTime: p.RunResult.ExecTime,
			ProfileReused: reused,
		}
		if carried[i] {
			o.Verified = baseVerified[ids[i]]
		} else {
			_, o.Verified = run.Verify(i)
		}
		if reused {
			res.ProfileReuses++
		} else {
			res.DetectTime += o.DetectTime
		}
	}
	for i := range res.Libs {
		rep, analysis, key, hit := run.Lib(i)
		res.Libs[i], res.libKeys[i], res.byName[rep.Name] = rep, key, rep
		if hit {
			res.CacheHits++
		} else {
			res.CacheMisses++
			res.AnalysisTime += analysis
		}
	}
	if opt.Base != nil {
		inc := &IncrementalStats{BaseID: opt.BaseID}
		baseKeys := make(map[string]bool, len(opt.Base.libKeys))
		for _, k := range opt.Base.libKeys {
			baseKeys[k] = true
		}
		for _, k := range res.libKeys {
			if baseKeys[k] {
				inc.AbsorbedLibs++
			} else {
				inc.DeltaLibs++
			}
		}
		for i := range carried {
			if carried[i] {
				inc.CarriedVerifications++
			}
		}
		res.Incremental = inc
		s.Counters.Add("batches.incremental", 1)
		s.Counters.Add("incremental.absorbed_libs", int64(inc.AbsorbedLibs))
		s.Counters.Add("incremental.delta_libs", int64(inc.DeltaLibs))
		s.Counters.Add("incremental.carried_verifications", int64(inc.CarriedVerifications))
	}

	res.WallTime = time.Since(start)
	if !opt.rerun {
		s.Counters.Add("batches.completed", 1)
		s.Timings.Observe("batch.wall", res.WallTime)
	}
	return res, nil
}

// maxInstalls bounds the resident installs, received and generated alike.
const maxInstalls = 16

// install resolves the install for (framework, tailLibs) down one ladder:
// the copy already resident under that spec key; else, when a peer pushed
// it, receive's copy (nil when the push does not check out); else
// mlframework.Generate. Resolution runs at most once per spec key, so
// concurrent callers share one receive or one generation, and a caller
// whose spec key is already resolved or resolving never calls receive.
// The result stays resident for every later job and push — the fleet
// setting where many workloads target one shared install. The cache holds
// maxInstalls entries, evicted oldest-first; a job holding an evicted
// install keeps using it (installs are immutable), only the cache entry
// goes.
func (s *Service) install(framework string, tailLibs int, receive func() *mlframework.Install) (*mlframework.Install, error) {
	key := specKey(framework, tailLibs)
	s.mu.Lock()
	slot := s.installs[key]
	if slot == nil {
		slot = &installSlot{}
		s.installs[key] = slot
		s.installOrder = append(s.installOrder, key)
		for len(s.installOrder) > maxInstalls {
			oldest := s.installOrder[0]
			s.installOrder = s.installOrder[1:]
			delete(s.installs, oldest)
			s.Counters.Add("installs.evicted", 1)
		}
	}
	s.mu.Unlock()
	slot.once.Do(func() {
		if receive != nil {
			slot.in = receive()
		}
		generated := slot.in == nil
		if generated {
			slot.in, slot.err = mlframework.Generate(mlframework.Config{Framework: framework, TailLibs: tailLibs})
			if slot.err != nil {
				return
			}
			s.Counters.Add("installs.generated", 1)
		}
		got := negativa.InstallFingerprint(slot.in)
		s.mu.Lock()
		slot.fp, slot.generated = got, generated
		s.mu.Unlock()
	})
	return slot.in, slot.err
}

// specKey names the install slot of a spec: framework and tail count.
func specKey(framework string, tailLibs int) string { return fmt.Sprintf("%s/%d", framework, tailLibs) }

// ingestInstall resolves an ingestion-mode request directory against the
// configured IngestRoot and materializes the tree as an install. Paths are
// confined to the root: the join is cleaned and must stay inside it (ingest
// itself never follows symlinked directories, so a link cannot tunnel out
// either). Every submit re-reads the tree — on-disk contents may change
// between submissions, and an unchanged tree re-converges through its
// content-derived fingerprint and stage keys rather than a path-keyed cache.
func (s *Service) ingestInstall(rel string) (*mlframework.Install, error) {
	root := s.cfg.IngestRoot
	if root == "" {
		return nil, errors.New("dserve: ingestion is disabled on this node (no ingest root configured)")
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("dserve: ingest root: %w", err)
	}
	dir := filepath.Join(absRoot, rel)
	if dir != absRoot && !strings.HasPrefix(dir, absRoot+string(filepath.Separator)) {
		return nil, fmt.Errorf("dserve: ingest_dir %q escapes the ingest root", rel)
	}
	res, err := ingest.Tree(dir, ingest.Options{})
	if err != nil {
		return nil, fmt.Errorf("dserve: ingest %s: %w", rel, err)
	}
	in, err := res.Install()
	if err != nil {
		return nil, fmt.Errorf("dserve: ingest %s: %w", rel, err)
	}
	s.Counters.Add("ingests.trees", 1)
	s.Counters.Add("ingests.libraries", int64(len(in.LibNames)))
	return in, nil
}
