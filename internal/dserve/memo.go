package dserve

import (
	"sync"
	"sync/atomic"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/metrics"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// boundedMemo is a pointer-keyed memo for values derived from immutable
// inputs (install fingerprints, library content digests). It is wiped once
// it holds max entries: the keys pin their objects against garbage
// collection, so the memo must not grow unbounded. Concurrent computes for
// the same key may run twice; both store the same value, so the race is
// benign.
type boundedMemo struct {
	m   sync.Map
	n   atomic.Int64
	max int64
}

func newBoundedMemo(max int64) *boundedMemo { return &boundedMemo{max: max} }

// getOK returns the memoized value for key, computing and storing it on
// first sight. A compute returning ok=false hands its value through
// without memoizing it, so transient failures (a store object momentarily
// absent) are retried on the next call instead of being cached forever.
func (b *boundedMemo) getOK(key any, compute func() (any, bool)) any {
	if v, ok := b.m.Load(key); ok {
		return v
	}
	v, ok := compute()
	if !ok {
		return v
	}
	if b.n.Add(1) > b.max {
		b.m.Range(func(k, _ any) bool { b.m.Delete(k); return true })
		b.n.Store(0)
	}
	b.m.Store(key, v)
	return v
}

// fifoMap is a map bounded by entry count that evicts oldest-inserted
// first — the memory tier of the profile registry and of the verify-record
// memo. Both are keyed by client-controlled identities, so the bound is what
// keeps a sweeping client from growing a long-running service without limit.
// Stored values are immutable and shared.
type fifoMap[K comparable, V any] struct {
	mu    sync.RWMutex
	max   int
	m     map[K]V
	order []K
}

func newFifoMap[K comparable, V any](max int) *fifoMap[K, V] {
	return &fifoMap[K, V]{max: max, m: map[K]V{}}
}

// put stores v under k (re-putting a key keeps its age) and returns the keys
// evicted to stay within the bound.
func (f *fifoMap[K, V]) put(k K, v V) (evicted []K) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.m[k]; !exists {
		f.order = append(f.order, k)
	}
	f.m[k] = v
	for len(f.m) > f.max {
		oldest := f.order[0]
		f.order = f.order[1:]
		delete(f.m, oldest)
		evicted = append(evicted, oldest)
	}
	return evicted
}

func (f *fifoMap[K, V]) get(k K) (V, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, ok := f.m[k]
	return v, ok
}

func (f *fifoMap[K, V]) size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.m)
}

// StageMemo is the serving plane's per-stage memoization behind the plan
// scheduler: one plan.Memo that routes each memoized stage's content key
// to its store, each with up to three tiers — local memory, local disk,
// owning cluster peer.
//
//   - detect → the profile Registry: memory entries keyed by (install
//     fingerprint, workload identity) recovered from the composite stage
//     hash, with on-disk profile snapshots replayed at boot. With a
//     cluster attached, the batch's prefetch reads the replica set
//     through. A miss left after it computes here, where the install
//     already is, and the write-behind pushes the profile to every live
//     owner.
//   - compact → the ResultCache: byte-bounded memory, then the
//     content-addressed store's disk tier (persisted range sets decoded
//     against the node's live library hint), then the key's replica set,
//     read through by the batch's prefetch. A peer-served result is Put
//     into the local cache and its record, as received, written behind the
//     batch into the local castore — so hot artifacts replicate toward the
//     demand that reads them. A miss computes here, where the library image
//     already is, and only the O(ranges) result travels: the write-behind
//     stores it locally and pushes it to every live owner.
//   - verifyrun → the verify-record memo: a count-bounded memory map of
//     *mlruntime.Result keyed by the stage hash (negativa.VerifyRunKey,
//     which addresses the debloated bytes actually handed out), then the
//     castore's verify objects, then the key's replica set, read through by
//     the verify-probe node's prefetch. A miss runs here, on this batch's
//     clone; the record is written to the local store and pushed to the
//     key's owners behind the batch. A run that errors memoizes nothing; a
//     run that completes with a different digest memoizes as that digest.
//
// A key of any other stage is not memoized: it computes every time (a
// batch's capped reference runs — negativa.Debloat's VerifySteps — when run
// over this memo).
//
// Every peer-tier failure (transport error, downed owner, undecodable
// payload) falls back to local compute: the cluster is an optimization
// over a node that is fully capable alone, and correctness never depends
// on a peer. One flight table spans the routed stages and the batch
// prefetch (resolve): while a key's value stays resident in its memory
// tier, the key computes once however many callers ask at once. A value
// evicted between a leader's plant and a waiter's re-probe computes again —
// the bound the tiers keep, not a second flight.
type StageMemo struct {
	registry *Registry
	cache    *ResultCache
	// verify is verifyrun's memory tier; store, when non-nil, its disk tier
	// (the registry and the cache hold their own handle on the same store).
	verify   *fifoMap[string, *mlruntime.Result]
	store    *castore.Store
	counters *metrics.CounterSet
	// cluster, when non-nil, adds the owning-peer tier to every routed
	// stage's lookups.
	cluster *cluster.Cluster
	// storeResult, replicateProfile and recordVerify, when non-nil, take a
	// new artifact behind the batch: into the local store when there is one
	// (a profile's snapshot is the registry's own), and to the named replica
	// peers. The memo calls them after every local compute, so each new
	// artifact reaches its disk tier and all live owners of its key without
	// waiting for the repair loop. storeResult's rec, when non-nil, is the
	// record a prefetched result was decoded from.
	storeResult      func(hash string, ld *negativa.LibDebloat, rec []byte, peers []string)
	replicateProfile func(pk ProfileKey, p *negativa.Profile, peers []string)
	recordVerify     func(hash string, r *mlruntime.Result, peers []string)

	// The batch-prefetch hot path (hotpath.go). flights is the singleflight
	// table spanning the prefetch and the stage nodes' own resolution of one
	// stage key; planted marks keys whose memory-tier value a batch lookup or
	// a verify probe put there from another tier (read back as that tier).
	flightMu sync.Mutex
	flights  map[plan.Key]chan struct{}
	hotMu    sync.Mutex
	planted  map[plan.Key]plan.Source
}

// NewStageMemo wires the service's reuse layers into one stage memo.
// counters, when non-nil, keeps the pre-stage-graph registry.hits /
// registry.misses series alive alongside the scheduler's per-stage ones.
func NewStageMemo(registry *Registry, cache *ResultCache, counters *metrics.CounterSet) *StageMemo {
	return &StageMemo{
		registry: registry,
		cache:    cache,
		verify:   newFifoMap[string, *mlruntime.Result](DefaultRegistryEntries),
		counters: counters,
	}
}

// AttachCluster adds the owning-peer tier. Call before serving; the memo
// never detaches a cluster.
func (m *StageMemo) AttachCluster(c *cluster.Cluster) { m.cluster = c }

// replicaOwners returns the stage key's replica set (ring order, primary
// first) and this node's ID, when a cluster is attached.
func (m *StageMemo) replicaOwners(key plan.Key) (owners []string, self string) {
	if m.cluster == nil {
		return nil, ""
	}
	return m.cluster.Owners(key.String()), m.cluster.Self()
}

// without filters one node (self, or a replica already consulted) out of
// a replica set.
func without(peers []string, id string) []string {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		if p != id {
			out = append(out, p)
		}
	}
	return out
}

// GetOrCompute implements plan.Memo, attributing each value to the tier
// that produced it. Detect, compact and verifyrun keys resolve under the hot
// path's singleflight table (resolve). slot is the calling node's executor
// slot: every wait on this consultation yields and re-acquires through it.
func (m *StageMemo) GetOrCompute(slot plan.Executor, key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	switch key.Stage {
	case negativa.StageDetect:
		fp, wid, ok := negativa.SplitDetectHash(key.Hash)
		if !ok {
			break
		}
		pk := ProfileKey{Install: fp, Workload: wid}
		return m.resolve(slot, key, func(bool) (any, plan.Source, bool) {
			p, ok := m.registry.Get(pk)
			if ok {
				m.count("registry.hits")
			}
			return p, plan.SourceMemory, ok
		}, func() (any, plan.Source, error) {
			return m.detectLeader(key, pk, compute)
		})
	case negativa.StageCompact:
		lib, _ := hint.(*elfx.Library)
		return m.resolve(slot, key, func(again bool) (any, plan.Source, bool) {
			if again && !m.cache.Contains(key.Hash) {
				return nil, 0, false // quiet: the first probe counted the miss
			}
			if ld, ok := m.cache.Get(key.Hash); ok {
				return ld, plan.SourceMemory, true
			}
			if again {
				return nil, 0, false
			}
			ld, ok := m.cache.LoadStored(key.Hash, lib)
			return ld, plan.SourceDisk, ok
		}, func() (any, plan.Source, error) {
			return m.compactLeader(key, compute)
		})
	case negativa.StageVerifyRun:
		return m.resolve(slot, key, func(again bool) (any, plan.Source, bool) {
			if again {
				r, ok := m.verify.get(key.Hash)
				return r, plan.SourceMemory, ok
			}
			return m.localVerify(key.Hash)
		}, func() (any, plan.Source, error) {
			return m.verifyLeader(key, compute)
		})
	}
	v, err := compute()
	return v, plan.SourceComputed, err
}

// resolve is the one loop every routed stage runs: probe the local tiers,
// and on a miss either wait out the key's current flight and probe again,
// or win the flight, probe the memory tier once more, and lead. The second
// probe is what makes the table a singleflight rather than check-then-act:
// between this caller's miss and its winning the flight, an earlier leader
// may have planted the value and ended its own flight, and without the
// re-probe the key would compute twice. probe(again) reports a local-tier
// value and its tier; again=true asks for the memory tier only (a leader
// plants there before it ends its flight). A hit reads as the tier that
// planted it when a prefetch or probe marked the key (consumeSource).
func (m *StageMemo) resolve(slot plan.Executor, key plan.Key, probe func(again bool) (any, plan.Source, bool), lead func() (any, plan.Source, error)) (any, plan.Source, error) {
	for {
		if v, src, ok := probe(false); ok {
			return v, m.consumeSource(key, src), nil
		}
		if m.beginFlight(key) {
			break
		}
		m.awaitFlight(slot, key)
	}
	defer m.endFlight(key)
	if v, src, ok := probe(true); ok {
		return v, m.consumeSource(key, src), nil
	}
	return lead()
}

// detectLeader resolves one detect key the batch prefetch did not plant:
// the replica set was already asked (or could not be reached), so the
// leader does not re-ask it — local compute with write-back to every live
// remote owner, the rule compact and verify follow too.
func (m *StageMemo) detectLeader(key plan.Key, pk ProfileKey, compute func() (any, error)) (any, plan.Source, error) {
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	p := v.(*negativa.Profile)
	m.registry.Put(pk, p)
	m.count("registry.misses")
	if m.replicateProfile != nil {
		owners, self := m.replicaOwners(key)
		m.replicateProfile(pk, p, without(owners, self))
	}
	return v, plan.SourceComputed, nil
}

// compactLeader resolves one compact key the batch prefetch did not plant:
// local compute with write-back to every live remote owner. Its input is a
// library image only this node is sure to hold, and shipping it costs far
// more than compacting it here.
func (m *StageMemo) compactLeader(key plan.Key, compute func() (any, error)) (any, plan.Source, error) {
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	ld := v.(*negativa.LibDebloat)
	m.cache.Put(key.Hash, ld)
	if m.storeResult != nil {
		owners, self := m.replicaOwners(key)
		m.storeResult(key.Hash, ld, nil, without(owners, self))
	}
	return v, plan.SourceComputed, nil
}

// verifyLeader resolves one verifyrun key no tier holds: run here, on the
// batch's clone, then plant the record in memory and hand it to the
// write-behind hook (local store, replica owners). An errored run leaves no
// record, so the next batch runs again.
func (m *StageMemo) verifyLeader(key plan.Key, compute func() (any, error)) (any, plan.Source, error) {
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	r := v.(*mlruntime.Result)
	m.verify.put(key.Hash, r)
	if m.recordVerify != nil {
		owners, self := m.replicaOwners(key)
		m.recordVerify(key.Hash, r, without(owners, self))
	}
	return v, plan.SourceComputed, nil
}

// localVerify reads a verifyrun key from this node's own tiers: memory, then
// the stored record, promoted into memory. Any absence or corruption is a
// miss — the caller re-runs.
func (m *StageMemo) localVerify(hash string) (*mlruntime.Result, plan.Source, bool) {
	if r, ok := m.verify.get(hash); ok {
		return r, plan.SourceMemory, true
	}
	if m.store == nil {
		return nil, 0, false
	}
	r, ok := loadVerifyRecord(m.store, hash)
	if ok {
		m.verify.put(hash, r)
	}
	return r, plan.SourceDisk, ok
}

// probeVerify is the verify-probe node's one look at a verifyrun key before
// the batch decides whether to build a clone. A record found on disk is
// marked, so the member's own node reads it from memory and still reports
// SourceDisk.
func (m *StageMemo) probeVerify(key plan.Key) (*mlruntime.Result, bool) {
	r, src, ok := m.localVerify(key.Hash)
	if ok && src == plan.SourceDisk {
		m.markPlanted(key, src)
	}
	return r, ok
}

func (m *StageMemo) count(name string) {
	if m.counters != nil {
		m.counters.Add(name, 1)
	}
}
