package dserve

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"negativaml/internal/bufpool"
	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
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
}

// StageDone implements plan.Observer.
func (o stageObserver) StageDone(stage string, hit bool, wall time.Duration) {
	if hit {
		o.c.Add("stage."+stage+".hits", 1)
	} else {
		o.c.Add("stage."+stage+".misses", 1)
	}
	o.t.Observe("stage."+stage, wall)
}

// StageSource implements plan.SourceObserver: hits are additionally
// attributed to the tier that served them (stage.<name>.disk_hits for
// castore restores, stage.<name>.peer_hits for values a cluster peer
// served or executed) so /v1/metrics can show where reuse actually comes
// from. A computed compact stage counts as analysis.computed — the ground
// truth for "did this service ever re-run locate/compact": the
// warm-restart tests assert it stays zero when every result comes from
// memory, disk or a peer.
func (o stageObserver) StageSource(stage string, src plan.Source, _ time.Duration) {
	switch src {
	case plan.SourceDisk:
		o.c.Add("stage."+stage+".disk_hits", 1)
	case plan.SourcePeer:
		o.c.Add("stage."+stage+".peer_hits", 1)
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
	// job holds its compacted library images (default 256). Running and
	// queued jobs are never evicted.
	MaxJobs int
	// MaxInstalls bounds the server-side generated-install cache
	// (default 16).
	MaxInstalls int
	// MaxInFlight bounds queued+running jobs; Submit returns ErrBusy
	// beyond it (default 64).
	MaxInFlight int
	// Store, when non-nil, is the disk-backed content-addressed store the
	// service persists through: the result cache gains a second tier,
	// detection profiles snapshot on Put and replay on boot, and completed
	// jobs spill their manifests and images so a restart serves them warm.
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

// Service is the batch-debloat service core: the profile registry, the
// content-addressed result cache, the bounded worker pool, and the job
// table behind the HTTP front end.
type Service struct {
	cfg Config

	Registry *Registry
	Cache    *ResultCache
	Counters *metrics.CounterSet
	Timings  *metrics.TimingSet
	// pool is the one counting semaphore every batch's plan nodes run
	// under, and the executor the stage memo yields around its waits:
	// concurrent jobs contend for the same Workers slots, in arrival order.
	pool    *plan.Pool
	store   *castore.Store
	cluster *cluster.Cluster
	// peerSem bounds concurrently executing peer-route stage computations
	// (remote detects this node serves as owning shard) to the same width
	// as the worker pool. It is deliberately a separate semaphore, not the
	// pool: peer handlers compute purely locally while holding a slot, so
	// they can never participate in a cross-node wait cycle the way sharing
	// the pool with network-blocked batch stages could.
	peerSem chan struct{}
	// stages routes every plan node's content key to its memo tier
	// (registry, result cache, verify records); observer mirrors stage
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
	// replWG tracks in-flight write-back replication pushes and
	// verify-record writes (repair.go); repairStop/repairWG manage the
	// periodic anti-entropy loop.
	replWG     sync.WaitGroup
	repairStop chan struct{}
	repairWG   sync.WaitGroup

	// restoredLibs memoizes store-image parses per content digest, so
	// restored jobs sharing libraries (the dependency tail) parse each
	// image once.
	restoredLibs *boundedMemo
}

type installSlot struct {
	once sync.Once
	in   *mlframework.Install
	err  error
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
	if cfg.MaxInstalls < 1 {
		cfg.MaxInstalls = 16
	}
	if cfg.MaxInFlight < 1 {
		cfg.MaxInFlight = 64
	}
	counters := metrics.NewCounterSet()
	s := &Service{
		cfg:          cfg,
		Registry:     NewRegistry(),
		Cache:        NewResultCache(cfg.CacheBytes, counters),
		Counters:     counters,
		Timings:      metrics.NewTimingSet(),
		pool:         plan.NewPool(cfg.Workers),
		jobs:         map[string]*Job{},
		installs:     map[string]*installSlot{},
		restoredLibs: newBoundedMemo(64),
		peerSem:      make(chan struct{}, cfg.Workers),
	}
	s.stages = NewStageMemo(s.Registry, s.Cache, counters)
	s.stages.AttachExecutor(s.pool)
	s.stages.recordVerify = s.recordVerify
	s.observer = stageObserver{c: counters, t: s.Timings}
	if cfg.Store != nil {
		// Warm-restart wiring: the cache and the verify records gain their
		// disk tier, the registry replays its snapshotted profiles, and
		// persisted job manifests come back as lazily-materialized done jobs.
		s.store = cfg.Store
		s.stages.store = cfg.Store
		s.Cache.AttachStore(cfg.Store)
		s.Registry.AttachStore(cfg.Store)
		if n := s.Registry.Replay(); n > 0 {
			counters.Add("registry.replayed", int64(n))
		}
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
	s.stages.AttachReplicator(s.replicateResult, s.replicateProfile)
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

// Close drains the service: no new submissions are accepted and Close
// returns once every running job has finished, every write-back
// replication push and verify-record write has settled, and every
// write-behind cache spill has reached the store — so a store closed after Close holds everything the
// memory tier ever took. An attached cluster's membership plane stops too
// (without announcing a leave; use LeaveCluster first for graceful
// departure).
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	stop := s.repairStop
	s.repairStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.repairWG.Wait()
	s.wg.Wait()
	s.replWG.Wait()
	s.Cache.CloseSpill()
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
	// Specs, when non-nil and parallel to the workload slice, carries the
	// batch's workload specs plus the install config — everything an
	// owning peer needs to re-execute a detect stage remotely (peers
	// regenerate the install from Framework/TailLibs, which is
	// deterministic, and pin it by fingerprint). The HTTP layer fills it
	// from the job request; library callers may leave it nil, in which
	// case detect stages compute locally on a cluster read-through miss.
	Specs *BatchSpecs
	// Observer, when non-nil, additionally receives this batch's per-stage
	// outcomes (alongside the service's global metrics observer) — the hook
	// job progress streams and the gateway's stage-seconds accounting hang
	// off.
	Observer plan.Observer
	// OnPlanned, when non-nil, is called once with the batch's total stage
	// count after the graph is built and before any stage executes — the
	// denominator for progress reporting.
	OnPlanned func(totalStages int)
}

// BatchSpecs is the serializable description of a batch, used by the
// cluster peer tier to re-execute detect stages on their owning shard.
type BatchSpecs struct {
	Framework string
	TailLibs  int
	// Workloads is parallel to the batch's workload slice.
	Workloads []WorkloadSpec
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
	// profiles served from the registry (no run executed in this batch).
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
	// members (registry hits cost nothing); AnalysisTime sums virtual
	// locate+compact time of cache misses (hits cost nothing). Their sum is
	// the batch's virtual end-to-end debloating cost.
	DetectTime   time.Duration
	AnalysisTime time.Duration
	// CacheHits / CacheMisses count this batch's per-library cache
	// outcomes; ProfileReuses counts members served from the registry.
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

// DebloatBatch union-debloats one install against a workload set by
// executing the analysis stage graph: per-member detect nodes feed a union
// node, the union feeds one compact node per library, and the compacted
// set feeds a verify probe, the clone it may ask for, and per-member
// verification nodes — every stage content-keyed and memoized through the
// service's tiers (registry, byte-bounded cache, verify records,
// content-addressed store). With opt.Base set the
// batch is incremental: base members' verifications carry over and only
// the union delta recomputes. Every workload must reference in as its
// install.
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
	fp := negativa.InstallFingerprint(in)

	ids := make([]string, len(workloads))
	for i := range workloads {
		ids[i] = negativa.WorkloadIdentity(workloads[i], maxSteps)
	}

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

	// Architectures: the union of every member's device set, so elements
	// needed by any member survive Reason-I removal.
	var devs []gpuarch.Device
	for i := range workloads {
		devs = append(devs, workloads[i].Devices...)
	}
	archs := negativa.DeviceArchs(devs)
	names := in.LibNames

	// ---- Stage graph ----
	g := plan.New()

	// Hot-path prefetch: with a cluster attached, a single unkeyed node
	// batches every detect key the graph will need into grouped
	// lookup-batch round trips (one per remote replica set) before the
	// detect nodes consult the memo — collapsing the peer-warm batch's
	// reads into a handful of scatter-gather calls. The node is glue, not a
	// stage: found profiles land in the registry, and it is the only remote
	// read the detect keys get.
	// markKeys scopes the prefetch marks to this batch: stage nodes consume
	// their marks on the happy path, but a batch aborting between prefetch
	// and consumption must not leave stale entries in the service-wide
	// memo. The compact prefetch node appends its keys during execution;
	// Execute waits for every node before returning, so the deferred
	// clear observes the final slice.
	var markKeys []plan.Key
	defer func() { s.stages.clearMarks(markKeys) }()

	var detectDeps []*plan.Node
	if s.cluster != nil {
		items := make([]prefetchItem, len(workloads))
		for i := range workloads {
			items[i] = prefetchItem{key: negativa.DetectKey(fp, ids[i])}
			markKeys = append(markKeys, items[i].key)
		}
		pf := g.Node("prefetch", nil, nil, func([]any) (any, error) {
			s.stages.PrefetchLookups(items)
			return nil, nil
		})
		detectDeps = []*plan.Node{pf}
	}

	// Detection: one node per member, memoized in the profile registry.
	// With specs attached, each node also carries the hint the cluster
	// tier needs to execute the stage on its owning shard.
	detects := make([]*plan.Node, len(workloads))
	for i := range workloads {
		i := i
		w := workloads[i]
		detects[i] = g.Node(negativa.StageDetect, detectDeps, plan.StaticKey(negativa.DetectKey(fp, ids[i])), func([]any) (any, error) {
			p, err := negativa.DetectUsage(w, maxSteps)
			if err != nil {
				return nil, fmt.Errorf("dserve: detect %s: %w", w.Name, err)
			}
			return p, nil
		})
		if opt.Specs != nil && i < len(opt.Specs.Workloads) {
			detects[i].WithHint(&detectHint{
				framework: opt.Specs.Framework,
				tailLibs:  opt.Specs.TailLibs,
				maxSteps:  maxSteps,
				spec:      opt.Specs.Workloads[i],
			})
		}
	}

	// Union: unkeyed glue — merging sorted symbol lists is far cheaper
	// than addressing the result.
	unionNode := g.Node("union", detects, nil, func(deps []any) (any, error) {
		ps := make([]*negativa.Profile, len(deps))
		for i := range deps {
			ps[i] = deps[i].(*negativa.Profile)
		}
		union := negativa.MergeProfiles(ps...)
		// Safety invariant of union debloating: the union must cover every
		// member, or the compacted install would break that member.
		for i, p := range ps {
			if !union.Covers(p) {
				return nil, fmt.Errorf("dserve: union profile does not cover %s", workloads[i].Name)
			}
		}
		return union, nil
	})

	// Compact-key prefetch: compact keys are derivable from the union
	// alone, so as soon as the union resolves one glue node batches every
	// compact key into grouped lookup-batch round trips before the compact
	// nodes consult the memo.
	compactPrefetchDeps := []*plan.Node(nil)
	if s.cluster != nil {
		pfc := g.Node("prefetch", []*plan.Node{unionNode}, nil, func(deps []any) (any, error) {
			u := deps[0].(*negativa.Profile)
			items := make([]prefetchItem, 0, len(names))
			for _, name := range names {
				lib := in.Library(name)
				items = append(items, prefetchItem{
					key:  negativa.CompactKey(negativa.LocateKey(lib, u.UsedFuncs[name], u.UsedKernels[name], archs)),
					hint: lib,
				})
				markKeys = append(markKeys, items[len(items)-1].key)
			}
			s.stages.PrefetchLookups(items)
			return nil, nil
		})
		compactPrefetchDeps = []*plan.Node{pfc}
	}

	// Compaction: one node per library, keyed late from the union's
	// used-symbol sets and landing in the two-tier result cache (memory,
	// then the content-addressed store, decoded against the live library
	// hint). Location runs inside the node, so only a miss pays for it.
	compacts := make([]*plan.Node, len(names))
	for i, name := range names {
		compacts[i] = negativa.CompactNode(g, unionNode, name, in.Library(name), archs, compactPrefetchDeps...)
	}

	// Verification: the union-debloated install must reproduce every
	// member's reference digest. A verify run is a pure function of (install,
	// workload identity at the step cap, the debloated bytes), so it is a
	// memoized stage keyed by what the batch hands out: the probe node
	// digests the range sets in the compact values themselves, derives each
	// fresh member's key, reads the replica set through when clustered and
	// asks the memo once; the clone is built — in chunk nodes inside the
	// pool — only if some member went unanswered. The graph is the same
	// either way, so its node count is known before it runs. An explicit
	// incremental base still carries outcomes over without a key: it answers
	// for a different debloated set, by monotonicity, which no content
	// address can express.
	verifies := make([]*plan.Node, len(workloads))
	var probeNode *plan.Node
	// Pooled scratch backing the verify clone's materialized libraries, one
	// slot per library so the clone nodes fill it without sharing. The clone
	// only lives until the verify nodes finish and nothing aliases the
	// buffers once Execute returns — verify values are scalar Results — so
	// they go back to the pool on every exit path instead of becoming
	// per-batch garbage.
	cloneBufs := make([][]byte, len(names))
	defer func() {
		for _, b := range cloneBufs {
			bufpool.Put(b)
		}
	}()
	var fresh []int
	if !opt.SkipVerify {
		for i := range workloads {
			if !carried[i] {
				fresh = append(fresh, i)
			}
		}
	}
	if len(fresh) > 0 {
		probeNode = g.Node("verifyprobe", compacts, nil, func(deps []any) (any, error) {
			images := make([]*negativa.SparseImage, len(deps))
			for i, d := range deps {
				images[i] = d.(*negativa.LibDebloat).Report.Sparse
			}
			set := negativa.DebloatedSetDigest(names, images)
			vp := &verifyProbe{keys: make([]plan.Key, len(workloads)), found: make([]*mlruntime.Result, len(workloads))}
			items := make([]prefetchItem, len(fresh))
			for j, i := range fresh {
				vp.keys[i] = negativa.VerifyRunKey(fp, ids[i], maxSteps, set)
				items[j] = prefetchItem{key: vp.keys[i]}
				markKeys = append(markKeys, vp.keys[i])
			}
			// A record can exist only where the whole debloated set did. A
			// batch that had to compute part of the set itself is, short of
			// an eviction on every owner, the first to hold it: no replica
			// has a record to serve, so the round trip — which would sit on
			// the critical path just as this node's write-back of those
			// computed parts saturates the peers — is not made. Guessing
			// wrong costs the local run every batch used to pay.
			allHit := true
			for _, c := range compacts {
				allHit = allHit && c.Hit()
			}
			if allHit {
				s.stages.PrefetchLookups(items)
			}
			for _, i := range fresh {
				r, ok := s.stages.probeVerify(vp.keys[i])
				vp.found[i] = r
				vp.needClone = vp.needClone || !ok
			}
			return vp, nil
		})
		cloneNode := verifyClone(g, in, probeNode, compacts, s.pool.Workers(), cloneBufs)
		for _, i := range fresh {
			i := i
			verifies[i] = g.Node(negativa.StageVerifyRun, []*plan.Node{probeNode, cloneNode}, func(deps []any) (plan.Key, error) {
				return deps[0].(*verifyProbe).keys[i], nil
			}, func(deps []any) (any, error) {
				if r := deps[0].(*verifyProbe).found[i]; r != nil {
					// The probe found this record and skipped the clone on
					// its strength; the memory tier evicted it since.
					return r, nil
				}
				vw := workloads[i]
				vw.Install = deps[1].(*mlframework.Install)
				vr, err := mlruntime.Run(vw, mlruntime.Options{MaxSteps: maxSteps})
				if err != nil {
					return nil, fmt.Errorf("dserve: verify %s: %w", vw.Name, err)
				}
				return vr, nil
			})
		}
	}

	if opt.OnPlanned != nil {
		opt.OnPlanned(g.Len())
	}
	if err := g.Execute(s.pool, s.stages, plan.MultiObserver(s.observer, opt.Observer)); err != nil {
		return nil, err
	}
	if probeNode != nil && probeNode.Value().(*verifyProbe).needClone {
		s.Counters.Add("verify.clones", 1)
	}

	// ---- Assembly ----
	outcomes := make([]WorkloadOutcome, len(workloads))
	for i := range workloads {
		p := detects[i].Value().(*negativa.Profile)
		outcomes[i] = WorkloadOutcome{
			Name: workloads[i].Name, Identity: ids[i],
			RefDigest: p.RunResult.Digest, DetectTime: p.RunResult.ExecTime,
			ProfileReused: detects[i].Hit(),
		}
		switch {
		case carried[i]:
			outcomes[i].Verified = baseVerified[ids[i]]
		case verifies[i] != nil:
			outcomes[i].Verified = verifies[i].Value().(*mlruntime.Result).Digest == p.RunResult.Digest
		}
	}

	union := unionNode.Value().(*negativa.Profile)
	res := &BatchResult{InstallFP: fp, Union: union, Workloads: outcomes, VerifySkipped: opt.SkipVerify}
	res.byName = make(map[string]*negativa.LibraryReport, len(names))
	for i, name := range names {
		ld := compacts[i].Value().(*negativa.LibDebloat)
		rep := ld.Report
		if rep.Name != name {
			// The memoized report may have been computed under a different
			// library name (identical bytes elsewhere); re-label a shallow
			// copy, sharing the immutable compacted image.
			relabeled := *rep
			relabeled.Name = name
			rep = &relabeled
		}
		res.Libs = append(res.Libs, rep)
		res.libKeys = append(res.libKeys, compacts[i].ResolvedKey().Hash)
		res.byName[rep.Name] = rep
		if compacts[i].Hit() {
			res.CacheHits++
		} else {
			res.CacheMisses++
			res.AnalysisTime += ld.Analysis
		}
	}
	for i := range outcomes {
		if outcomes[i].ProfileReused {
			res.ProfileReuses++
		} else {
			res.DetectTime += outcomes[i].DetectTime
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
	s.Counters.Add("batches.completed", 1)
	s.Timings.Observe("batch.wall", res.WallTime)
	return res, nil
}

// verifyProbe is the verify-probe node's value: what the memo already
// answers for this batch's fresh members, and therefore whether a clone is
// needed at all. keys and found are indexed like the batch's workloads
// (zero and nil for carried members); found[i] is carried to member i's
// verifyrun node so an eviction between probe and lookup returns the record
// instead of needing a clone that was never built.
type verifyProbe struct {
	keys      []plan.Key
	found     []*mlruntime.Result
	needClone bool
}

// verifyClone adds the verify clone to g: the install with every library
// replaced by its debloated image, which is the one value every verify run
// that misses waits on. probe is the verify-probe node; when it reports that
// every fresh member is already answered the nodes below do nothing — no
// scratch, no materialize, no parse — and the join has no value.
// compacts are the compact nodes in in.LibNames order. The work is per
// library — materialize the sparse image into pooled scratch (kept in
// bufs[i] for the caller to recycle once the graph has run), then parse it —
// so it is split into about chunks "clone" nodes over contiguous runs of
// libraries, joined by one more "clone" node whose value is the
// *mlframework.Install. The runs hold about equal bytes, not equal counts:
// load order puts an install's few large framework libraries first and its
// many small dependencies last. All of the nodes are unmemoized glue inside
// g, scheduled and bounded like any other.
func verifyClone(g *plan.Graph, in *mlframework.Install, probe *plan.Node, compacts []*plan.Node, chunks int, bufs [][]byte) *plan.Node {
	names := in.LibNames
	libs := make([]*elfx.Library, len(names))
	var total int64
	for _, name := range names {
		total += in.Library(name).FileSize()
	}
	var parts []*plan.Node
	next, sum := 0, int64(0)
	for i, name := range names {
		sum += in.Library(name).FileSize()
		if i+1 < len(names) && sum*int64(chunks) < int64(len(parts)+1)*total {
			continue
		}
		lo, hi := next, i+1
		next = hi
		deps := append([]*plan.Node{probe}, compacts[lo:hi]...)
		parts = append(parts, g.Node("clone", deps, nil, func(deps []any) (any, error) {
			if !deps[0].(*verifyProbe).needClone {
				return nil, nil
			}
			for j, d := range deps[1:] {
				i := lo + j
				sp := d.(*negativa.LibDebloat).Report.Sparse
				bufs[i] = bufpool.Get(int(sp.Len()))
				lib, err := elfx.Parse(names[i], sp.MaterializeInto(bufs[i]))
				if err != nil {
					return nil, fmt.Errorf("dserve: clone install: replace %s: %w", names[i], err)
				}
				libs[i] = lib
			}
			return nil, nil
		}))
	}
	return g.Node("clone", append([]*plan.Node{probe}, parts...), nil, func(deps []any) (any, error) {
		if !deps[0].(*verifyProbe).needClone {
			return nil, nil
		}
		clone := *in
		clone.Libs = make(map[string]*elfx.Library, len(in.Libs))
		for name, lib := range in.Libs {
			clone.Libs[name] = lib
		}
		for i, name := range names {
			clone.Libs[name] = libs[i]
		}
		return &clone, nil
	})
}

// install returns the generated install for (framework, tailLibs),
// generating it at most once and sharing it across jobs — the fleet setting
// where many workloads target one shared install. The cache is bounded to
// MaxInstalls entries, evicted oldest-first; a job holding an evicted
// install keeps using it (installs are immutable), only the cache entry
// goes.
func (s *Service) install(framework string, tailLibs int) (*mlframework.Install, error) {
	key := fmt.Sprintf("%s/%d", framework, tailLibs)
	s.mu.Lock()
	slot := s.installs[key]
	if slot == nil {
		slot = &installSlot{}
		s.installs[key] = slot
		s.installOrder = append(s.installOrder, key)
		for len(s.installOrder) > s.cfg.MaxInstalls {
			oldest := s.installOrder[0]
			s.installOrder = s.installOrder[1:]
			delete(s.installs, oldest)
			s.Counters.Add("installs.evicted", 1)
		}
	}
	s.mu.Unlock()
	slot.once.Do(func() {
		slot.in, slot.err = mlframework.Generate(mlframework.Config{Framework: framework, TailLibs: tailLibs})
		if slot.err == nil {
			s.Counters.Add("installs.generated", 1)
		}
	})
	return slot.in, slot.err
}

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
