package dserve

import (
	"encoding/json"
	"errors"
	"sync"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/metrics"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// fifoMap is dserve's one count-bounded map: it evicts oldest-inserted
// first. It is the memory tier of the detect and verifyrun stages, keyed by
// client-controlled identities, so the bound is what keeps a sweeping client
// from growing a long-running service without limit. Stored values are
// immutable and shared.
type fifoMap[K comparable, V any] struct {
	mu    sync.RWMutex
	max   int
	m     map[K]V
	order []K
}

func newFifoMap[K comparable, V any](max int) *fifoMap[K, V] {
	return &fifoMap[K, V]{max: max, m: map[K]V{}}
}

// put stores v under k (re-putting a key keeps its age), evicting the oldest
// keys beyond the bound.
func (f *fifoMap[K, V]) put(k K, v V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, exists := f.m[k]; !exists {
		f.order = append(f.order, k)
	}
	f.m[k] = v
	for len(f.m) > f.max {
		delete(f.m, f.order[0])
		f.order = f.order[1:]
	}
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

// tierEntries bounds the detect and verifyrun memory tiers.
const tierEntries = 1024

// memoStage is one memoized stage's storage rules. Every path that holds,
// stores or moves a stage value — the resolve loop and its leader, the disk
// loader, the batch prefetch's probe and plant, the write-behind, the peer
// lookup and the repair walk — reads its entry in memoStages instead of
// switching on the stage.
type memoStage struct {
	stage string
	// kind is the castore kind of the disk tier; objectKey derives the
	// object's key from the stage hash.
	kind      string
	objectKey func(hash string) string
	// encode turns a value into the record the disk tier keeps, the one
	// form it also crosses the wire in; decode reads a record back under
	// the hash it was asked for, against hint (the compact stage's live
	// library).
	encode func(hash string, v any) ([]byte, error)
	decode func(hash string, hint any, rec []byte) (any, error)
	// held, get and put are the memory tier: a quiet presence check, the
	// read (the result cache counts its own hits and misses), the plant.
	held func(m *StageMemo, hash string) bool
	get  func(m *StageMemo, hash string) (any, bool)
	put  func(m *StageMemo, hash string, v any)
	// hits and misses, when set, name the counters of the stage's local-tier
	// hits and of its computes.
	hits, misses string
	// stored, when set, reads a stored record's stage hash for the repair
	// walk; nil means the object key is the stage hash.
	stored func(rec []byte) (hash string, ok bool)
}

// memoStages is the table, in the order the repair walk visits the kinds.
var memoStages = [...]memoStage{{
	stage: negativa.StageDetect, kind: kindProfile,
	objectKey: profileObjectKey,
	encode: func(hash string, v any) ([]byte, error) {
		fp, wid, _ := negativa.SplitDetectHash(hash)
		return negativa.EncodeProfile(fp, wid, v.(*negativa.Profile))
	},
	decode: func(hash string, _ any, rec []byte) (any, error) {
		fp, wid, _ := negativa.SplitDetectHash(hash)
		return negativa.DecodeProfile(rec, fp, wid)
	},
	held: func(m *StageMemo, hash string) bool { _, ok := m.profiles.get(hash); return ok },
	get:  func(m *StageMemo, hash string) (any, bool) { return m.profiles.get(hash) },
	put:  func(m *StageMemo, hash string, v any) { m.profiles.put(hash, v.(*negativa.Profile)) },
	hits: "registry.hits", misses: "registry.misses",
	stored: func(rec []byte) (string, bool) {
		fp, wid, ok := negativa.ProfileRecordKey(rec)
		return negativa.DetectKey(fp, wid).Hash, ok
	},
}, {
	stage: negativa.StageCompact, kind: kindRecord,
	objectKey: hashObjectKey,
	encode: func(_ string, v any) ([]byte, error) {
		return negativa.EncodeRecord(v.(*negativa.LibDebloat))
	},
	decode: func(_ string, hint any, rec []byte) (any, error) {
		lib, _ := hint.(*elfx.Library)
		return negativa.DecodeRecord(lib, rec)
	},
	held: func(m *StageMemo, hash string) bool { return m.cache.Contains(hash) },
	get:  func(m *StageMemo, hash string) (any, bool) { return m.cache.Get(hash) },
	put:  func(m *StageMemo, hash string, v any) { m.cache.Put(hash, v.(*negativa.LibDebloat)) },
}, {
	stage: negativa.StageVerifyRun, kind: kindVerify,
	objectKey: hashObjectKey,
	encode: func(hash string, v any) ([]byte, error) {
		return json.Marshal(storedVerify{Key: hash, Result: v.(*mlruntime.Result)})
	},
	decode: func(hash string, _ any, rec []byte) (any, error) {
		var sv storedVerify
		if err := json.Unmarshal(rec, &sv); err != nil {
			return nil, err
		}
		if sv.Key != hash || sv.Result == nil {
			return nil, errors.New("dserve: verify record filed under another key")
		}
		return sv.Result, nil
	},
	held: func(m *StageMemo, hash string) bool { _, ok := m.verify.get(hash); return ok },
	get:  func(m *StageMemo, hash string) (any, bool) { return m.verify.get(hash) },
	put:  func(m *StageMemo, hash string, v any) { m.verify.put(hash, v.(*mlruntime.Result)) },
}}

// hashObjectKey stores a record under its stage hash, already a hex digest.
func hashObjectKey(hash string) string { return hash }

// memoStageOf returns the stage's table entry, nil for a stage that is not
// memoized.
func memoStageOf(stage string) *memoStage {
	for i := range memoStages {
		if memoStages[i].stage == stage {
			return &memoStages[i]
		}
	}
	return nil
}

// StageMemo is the serving plane's per-stage memoization behind the plan
// scheduler: one plan.Memo that resolves each memoized stage's content key
// through up to three tiers — local memory, local disk, the key's replica
// set — by the rules of its memoStages entry:
//
//	stage      castore kind  object key                   memory tier
//	detect     profile       sha256(fp ‖ NUL ‖ identity)  fifoMap of profiles, 1024, oldest first
//	compact    record        the stage hash               ResultCache, byte-bounded LRU
//	verifyrun  verify        the stage hash               fifoMap of run results, 1024, oldest first
//
// castore's byte budget (castore.Options.MaxBytes, least recently used
// first) is the one disk bound, the same for every kind.
//
// A stage node's key resolves under one flight table (resolve): memory, then
// — by the flight's leader only — the disk loader, then local compute. The
// replica set is read once per batch, ahead of the stage nodes, by the batch
// prefetch (hotpath.go), which plants what the owners hold into memory; a
// key it did not plant computes here, where its inputs already are. A
// computed value is planted in memory and handed to the write-behind, which
// stores its record locally and pushes it to every live remote owner; a
// prefetched one is stored locally as received. A compute that errors
// memoizes nothing; a verify run that completes with a different digest
// memoizes as that digest.
//
// A key of any other stage is not memoized: it computes every time (a
// batch's capped reference runs — negativa.Debloat's VerifySteps — when run
// over this memo).
//
// Every peer-tier failure (transport error, downed owner, undecodable
// record) falls back to local compute: the cluster is an optimization over
// a node that is fully capable alone, and correctness never depends on a
// peer. While a key's value stays resident in its memory tier, the key
// computes once however many callers ask at once. A value evicted between a
// leader's plant and a waiter's re-probe computes again — the bound the
// tiers keep, not a second flight.
type StageMemo struct {
	// profiles, cache and verify are the memory tiers of detect, compact and
	// verifyrun, keyed by stage hash; store, when non-nil, the disk tier of
	// all three.
	profiles *fifoMap[string, *negativa.Profile]
	cache    *ResultCache
	verify   *fifoMap[string, *mlruntime.Result]
	store    *castore.Store
	counters *metrics.CounterSet
	// cluster, when non-nil, adds the owning-peer tier to every routed
	// stage's lookups.
	cluster *cluster.Cluster
	// writeStage, when non-nil, writes a new value behind the batch — into
	// the local store, when there is one, and to the named replica peers —
	// so it reaches its disk tier and every live owner of its key without
	// waiting for the repair loop. rec, when non-nil, is the record a
	// prefetched value arrived as.
	writeStage func(st *memoStage, hash string, v any, rec []byte, peers []string)

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
func NewStageMemo(cache *ResultCache, counters *metrics.CounterSet) *StageMemo {
	return &StageMemo{
		profiles: newFifoMap[string, *negativa.Profile](tierEntries),
		cache:    cache,
		verify:   newFifoMap[string, *mlruntime.Result](tierEntries),
		counters: counters,
	}
}

// AttachCluster adds the owning-peer tier. Call before serving; the memo
// never detaches a cluster.
func (m *StageMemo) AttachCluster(c *cluster.Cluster) { m.cluster = c }

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
// that produced it. A memoized stage's key resolves under the hot path's
// singleflight table (resolve). slot is the calling node's executor slot:
// every wait on this consultation yields and re-acquires through it.
func (m *StageMemo) GetOrCompute(slot plan.Executor, key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	st := memoStageOf(key.Stage)
	if st == nil {
		v, err := compute()
		return v, plan.SourceComputed, err
	}
	return m.resolve(slot, key, func(again bool) (any, plan.Source, bool) {
		if again && !st.held(m, key.Hash) {
			return nil, 0, false // quiet: the first probe counted the miss
		}
		v, ok := st.get(m, key.Hash)
		if ok {
			m.count(st.hits)
		}
		return v, plan.SourceMemory, ok
	}, func() (any, plan.Source, error) {
		return m.lead(st, key, hint, compute)
	})
}

// resolve is the one loop every routed stage runs: probe the memory tier,
// and on a miss either wait out the key's current flight and probe again,
// or win the flight, probe the memory tier once more, and lead. The second
// probe is what makes the table a singleflight rather than check-then-act:
// between this caller's miss and its winning the flight, an earlier leader
// may have planted the value and ended its own flight, and without the
// re-probe the key would compute twice. probe(again) reports a memory-tier
// value; again=true asks quietly first. A hit reads as the tier that
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

// lead resolves a key whose flight it won and whose memory tier misses: the
// disk loader, read once per flight, then local compute. It never asks the
// replica set — the batch prefetch already did, or could not reach it — so a
// miss computes here, where the install, the library image or the clone
// already is, and only the value's record travels: planted in memory, then
// written behind to the local store and every live remote owner. An errored
// compute leaves nothing, so the next batch computes again.
func (m *StageMemo) lead(st *memoStage, key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	if v, ok := m.loadStored(st, key.Hash, hint); ok {
		m.count(st.hits)
		return v, plan.SourceDisk, nil
	}
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	st.put(m, key.Hash, v)
	m.count(st.misses)
	if m.writeStage != nil {
		var owners []string
		if m.cluster != nil {
			owners = without(m.cluster.Owners(key.String()), m.cluster.Self())
		}
		m.writeStage(st, key.Hash, v, nil, owners)
	}
	return v, plan.SourceComputed, nil
}

// loadStored is the one disk loader. Has comes before Get (storedKey), so
// a key the store lacks costs no store miss. The record decodes under the
// hash asked for; one that does not — corrupt, filed under another key,
// written in an older format, or bound to another library — is deleted
// (unless a job pins it), so the recompute it forces can store it again. A
// hit is planted in the memory tier.
func (m *StageMemo) loadStored(st *memoStage, hash string, hint any) (any, bool) {
	okey, ok := m.storedKey(st, hash)
	if !ok {
		return nil, false
	}
	raw, ok := m.store.Get(st.kind, okey)
	if !ok {
		return nil, false
	}
	v, err := st.decode(hash, hint, raw)
	if err != nil {
		m.store.Delete(st.kind, okey)
		return nil, false
	}
	st.put(m, hash, v)
	return v, true
}

// record is a lookup-batch answer: the record the disk tier keeps for the
// key — a memory-tier value encoded to the same bytes, else the stored
// bytes as they are (the requester's decode is the check).
func (m *StageMemo) record(st *memoStage, hash string) ([]byte, bool) {
	if v, ok := st.get(m, hash); ok {
		rec, err := st.encode(hash, v)
		return rec, err == nil
	}
	okey, ok := m.storedKey(st, hash)
	if !ok {
		return nil, false
	}
	return m.store.Get(st.kind, okey)
}

// storedKey returns the key's castore object key when the store holds it —
// the presence probe every disk read asks first, so a key the store lacks
// costs no store miss.
func (m *StageMemo) storedKey(st *memoStage, hash string) (string, bool) {
	if m.store == nil {
		return "", false
	}
	okey := st.objectKey(hash)
	return okey, m.store.Has(st.kind, okey)
}

// probeVerify is the verify-probe node's one look at a verifyrun key before
// the batch decides whether to build a clone: memory, then the disk loader.
// A record found on disk is marked, so the member's own node reads it from
// memory and still reports SourceDisk.
func (m *StageMemo) probeVerify(key plan.Key) (*mlruntime.Result, bool) {
	st := memoStageOf(key.Stage)
	v, ok := st.get(m, key.Hash)
	if !ok {
		if v, ok = m.loadStored(st, key.Hash, nil); ok {
			m.markPlanted(key, plan.SourceDisk)
		}
	}
	r, _ := v.(*mlruntime.Result)
	return r, ok
}

func (m *StageMemo) count(name string) {
	if m.counters != nil && name != "" {
		m.counters.Add(name, 1)
	}
}
