package dserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

// tierEntries bounds the detect and verifyrun memory tiers.
const tierEntries = 1024

// unionEntries bounds the union tier. A union is worth keeping while its
// member set is resubmitted, and the busiest warm traffic measured serves
// six member sets (bench's gateway_open), so this keeps those with room to
// spare. The largest union measured retains about 1.0 MB (doc.go's tier
// table), so the tier holds at most about 16 MB.
const unionEntries = 16

// memoStage is one memoized stage's storage rules. Every path that holds,
// stores or moves a stage value — GetOrCompute and its leader, the disk
// loader, the batch prefetch's probe and plant, the write-behind, the peer
// lookup and the repair walk — reads its entry in memoStages instead of
// switching on the stage.
type memoStage struct {
	stage string
	// kind is the castore kind of the disk tier, where a record is filed
	// under its stage hash; empty for a stage held in memory only, which
	// has no record: nothing stores, writes behind, repairs or answers a
	// peer lookup for it.
	kind string
	// encode and decode are the stage's codec: a value to the payload a
	// record seals, and back against hint (the compact stage's live
	// library). Neither knows the key; seal and open bind it. Nil for a
	// stage held in memory only.
	encode func(v any) ([]byte, error)
	decode func(hint any, payload []byte) (any, error)
	// held, get and put are the memory tier: a quiet presence check, the
	// read (the result cache counts its own hits and misses), the plant.
	held func(m *StageMemo, hash string) bool
	get  func(m *StageMemo, hash string) (any, bool)
	put  func(m *StageMemo, hash string, v any)
}

// memoStages is the table, in the order the repair walk visits the kinds.
var memoStages = [...]memoStage{{
	stage: negativa.StageDetect, kind: kindProfile,
	encode: func(v any) ([]byte, error) { return negativa.EncodeProfile(v.(*negativa.Profile)) },
	decode: func(_ any, p []byte) (any, error) { return negativa.DecodeProfile(p) },
	held:   func(m *StageMemo, hash string) bool { _, ok := m.profiles.get(hash); return ok },
	get:    func(m *StageMemo, hash string) (any, bool) { return m.profiles.get(hash) },
	put:    func(m *StageMemo, hash string, v any) { m.profiles.put(hash, v.(*negativa.Profile)) },
}, {
	stage: negativa.StageCompact, kind: kindRecord,
	encode: func(v any) ([]byte, error) { return negativa.EncodeRecord(v.(*negativa.LibDebloat)) },
	decode: func(hint any, p []byte) (any, error) {
		lib, _ := hint.(*elfx.Library)
		return negativa.DecodeRecord(lib, p)
	},
	held: func(m *StageMemo, hash string) bool { return m.cache.Contains(hash) },
	get:  func(m *StageMemo, hash string) (any, bool) { return m.cache.Get(hash) },
	put:  func(m *StageMemo, hash string, v any) { m.cache.Put(hash, v.(*negativa.LibDebloat)) },
}, {
	stage: negativa.StageVerifyRun, kind: kindVerify,
	encode: func(v any) ([]byte, error) { return json.Marshal(v.(*mlruntime.Result)) },
	decode: func(_ any, p []byte) (any, error) {
		var r *mlruntime.Result
		if err := json.Unmarshal(p, &r); err != nil || r == nil {
			return nil, errors.New("dserve: verify record holds no run result")
		}
		return r, nil
	},
	held: func(m *StageMemo, hash string) bool { _, ok := m.verify.get(hash); return ok },
	get:  func(m *StageMemo, hash string) (any, bool) { return m.verify.get(hash) },
	put:  func(m *StageMemo, hash string, v any) { m.verify.put(hash, v.(*mlruntime.Result)) },
}, {
	stage: negativa.StageUnion,
	held:  func(m *StageMemo, hash string) bool { _, ok := m.unions.get(hash); return ok },
	get:   func(m *StageMemo, hash string) (any, bool) { return m.unions.get(hash) },
	put:   func(m *StageMemo, hash string, v any) { m.unions.put(hash, v.(*negativa.Union)) },
}}

// durable reports whether the stage has records: a castore kind, a disk
// tier, write-behind, repair and peer lookups.
func (st *memoStage) durable() bool { return st.kind != "" }

// A stage record is the raw 32-byte stage hash it answers, then its
// stage's payload. seal writes and open reads every record, on disk and on
// the wire, so the receiver of a record never takes a value filed under
// another key of the same stage: open checks the hash before the stage's
// decode runs. A record in an older format fails the check too.

// seal encodes v as the record of hash, a SHA-256 hex digest.
func (st *memoStage) seal(hash string, v any) ([]byte, error) {
	sum, ok := rawHash(hash)
	if !ok {
		return nil, fmt.Errorf("dserve: %s hash %q is not a digest", st.stage, hash)
	}
	payload, err := st.encode(v)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, len(sum)+len(payload)), sum[:]...), payload...), nil
}

// open decodes rec, against hint, as the record of hash.
func (st *memoStage) open(hash string, hint any, rec []byte) (any, error) {
	sum, ok := rawHash(hash)
	if !ok || len(rec) < len(sum) || !bytes.Equal(rec[:len(sum)], sum[:]) {
		return nil, fmt.Errorf("dserve: %s record is not sealed with its key", st.stage)
	}
	return st.decode(hint, rec[len(sum):])
}

// rawHash is a stage hash's 32 bytes; ok is false for a hash that is not
// a SHA-256 hex digest.
func rawHash(hash string) (sum [sha256.Size]byte, ok bool) {
	if len(hash) != hex.EncodedLen(sha256.Size) {
		return sum, false
	}
	_, err := hex.Decode(sum[:], []byte(hash))
	return sum, err == nil
}

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
//	stage      castore kind  object key      memory tier
//	detect     profile       the stage hash  fifoMap of profiles, 1024, oldest first
//	compact    record        the stage hash  ResultCache, byte-bounded LRU
//	verifyrun  verify        the stage hash  fifoMap of run results, 1024, oldest first
//	union      —             —               fifoMap of unions, 16, oldest first
//
// Every stage hash is a SHA-256 hex digest, and every record is sealed
// with its own (seal, open). The union has no record: it is held in memory
// only, and a miss costs one merge of profiles its batch already holds.
//
// castore's byte budget (castore.Options.MaxBytes, least recently used
// first) is the one disk bound, the same for every kind.
//
// A stage node's key resolves under one flight table (GetOrCompute): memory,
// then — by the flight's leader only — the disk loader, then local compute.
// The replica set is read once per batch, ahead of the stage nodes, by the
// batch prefetch (hotpath.go), which plants what the owners hold into memory
// for every batch and keeps it, with its source, in the asking batch's own
// table (batchMemo); a key it did not find computes here, where its inputs
// already are. A computed value is planted in memory and handed to the
// write-behind, which stores its record locally and pushes it to every live
// remote owner; a prefetched one is stored locally as received. A compute
// that errors memoizes nothing; a verify run that completes with a different
// digest memoizes as that digest.
//
// A key of any other stage is not memoized: it computes every time (a
// batch's capped reference runs — negativa.Debloat's VerifySteps — when run
// over this memo).
//
// Every peer-tier failure (transport error, downed owner, undecodable
// record) falls back to local compute: the cluster is an optimization over
// a node that is fully capable alone, and correctness never depends on a
// peer. While a key's value stays resident in its memory tier, the key
// computes once however many callers ask at once.
type StageMemo struct {
	// profiles, cache, verify and unions are the memory tiers of detect,
	// compact, verifyrun and union, keyed by stage hash; store, when
	// non-nil, the disk tier of the first three.
	profiles *fifoMap[string, *negativa.Profile]
	cache    *ResultCache
	verify   *fifoMap[string, *mlruntime.Result]
	unions   *fifoMap[string, *negativa.Union]
	store    *castore.Store
	counters *metrics.CounterSet
	// cluster, when non-nil, adds the owning-peer tier to every routed
	// stage's lookups.
	cluster *cluster.Cluster
	// writeStage, when non-nil, writes a new value behind the batch — into
	// the local store, when there is one, and to the named replica peers —
	// so it reaches its disk tier and every live owner of its key without
	// waiting for the repair loop. rec, when non-nil, is the record a
	// prefetched value arrived as, framed under the sum its read checked.
	writeStage func(st *memoStage, hash string, v any, rec *castore.Frame, peers []string)

	// flights is the singleflight table (hotpath.go) spanning every
	// batch's prefetch and the stage nodes' own resolution of one stage key.
	flightMu sync.Mutex
	flights  map[plan.Key]chan struct{}
}

// NewStageMemo wires the service's reuse layers into one stage memo.
// counters, when non-nil, takes the peer tier's peer.* series.
func NewStageMemo(cache *ResultCache, counters *metrics.CounterSet) *StageMemo {
	return &StageMemo{
		profiles: newFifoMap[string, *negativa.Profile](tierEntries),
		cache:    cache,
		verify:   newFifoMap[string, *mlruntime.Result](tierEntries),
		unions:   newFifoMap[string, *negativa.Union](unionEntries),
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
// singleflight table: probe the memory tier, and on a miss either wait out
// the key's current flight and probe again, or win the flight, probe the
// memory tier once more, and lead. The second probe is what makes the table
// a singleflight rather than check-then-act: between this caller's miss and
// its winning the flight, an earlier leader may have planted the value and
// ended its own flight, and without the re-probe the key would compute
// twice. It asks quietly first (held), since the first probe counted the
// miss. slot is the calling node's executor slot: every wait on this
// consultation yields and re-acquires through it.
func (m *StageMemo) GetOrCompute(slot plan.Executor, key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	st := memoStageOf(key.Stage)
	if st == nil {
		v, err := compute()
		return v, plan.SourceComputed, err
	}
	for {
		if v, ok := st.get(m, key.Hash); ok {
			return v, plan.SourceMemory, nil
		}
		if m.beginFlight(key) {
			break
		}
		m.awaitFlight(slot, key)
	}
	defer m.endFlight(key)
	if st.held(m, key.Hash) {
		if v, ok := st.get(m, key.Hash); ok {
			return v, plan.SourceMemory, nil
		}
	}
	return m.lead(st, key, hint, compute)
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
		return v, plan.SourceDisk, nil
	}
	v, err := compute()
	if err != nil {
		return nil, plan.SourceComputed, err
	}
	st.put(m, key.Hash, v)
	if m.writeStage != nil && st.durable() {
		var owners []string
		if m.cluster != nil {
			owners = without(m.cluster.Owners(key.String()), m.cluster.Self())
		}
		m.writeStage(st, key.Hash, v, nil, owners)
	}
	return v, plan.SourceComputed, nil
}

// loadStored is the one disk loader. Has comes before Get (stored), so a
// key the store lacks costs no store miss. The record opens under the hash
// asked for; one that does not — corrupt, sealed with another key, written
// in an older format, or bound to another library — is deleted, pinned or
// not, so the recompute it forces stores it again and the pins of the jobs
// holding it pass to the new record. A hit is planted in the memory tier.
func (m *StageMemo) loadStored(st *memoStage, hash string, hint any) (any, bool) {
	if !m.stored(st, hash) {
		return nil, false
	}
	raw, ok := m.store.Get(st.kind, hash)
	if !ok {
		return nil, false
	}
	v, err := st.open(hash, hint, raw)
	if err != nil {
		m.store.Delete(st.kind, hash)
		return nil, false
	}
	st.put(m, hash, v)
	return v, true
}

// exportRecord appends the key's record to a lookup-batch answer as one
// entry of a castore multi-object body, named <kind>/<hash>: a record the
// store holds goes out verbatim from its segment (castore.ExportEntry),
// neither sealed nor hashed again; a value held only in memory is sealed
// once and framed. It reports whether either tier held the key; the
// requester's checks — the frame's sum, then open — stand either way.
func (m *StageMemo) exportRecord(st *memoStage, hash string, body *bytes.Buffer) bool {
	if !st.durable() {
		return false
	}
	if m.stored(st, hash) {
		n := body.Len()
		if m.store.ExportEntry(st.kind, hash, body) == nil {
			return true
		}
		body.Truncate(n) // removed since the probe: try memory
	}
	v, ok := st.get(m, hash)
	if !ok {
		return false
	}
	rec, err := st.seal(hash, v)
	if err != nil {
		return false
	}
	body.Write(castore.AppendEntry(body.AvailableBuffer(), st.kind, hash, castore.NewFrame(rec)))
	return true
}

// stored reports whether the store holds the key's record — the presence
// probe every disk read asks first, so a key the store lacks costs no
// store miss.
func (m *StageMemo) stored(st *memoStage, hash string) bool {
	return m.store != nil && st.durable() && m.store.Has(st.kind, hash)
}

// batchMemo is one batch's view of the stage memo: the plan.Memo
// DebloatBatch runs its graph over. found is what this batch's look-ahead
// — the prefetch (SourcePeer) and the verify probe (SourceMemory,
// SourceDisk) — came by, each with the tier it came from. GetOrCompute
// hands each entry out once, to the first node that asks for its key, and
// every other ask resolves through the shared StageMemo. So a value the
// look-ahead found is never lost to an eviction before its node runs, and
// its source is credited to the batch that found it, not to a concurrent
// batch reading the same key.
type batchMemo struct {
	*StageMemo
	mu    sync.Mutex
	found map[plan.Key]answer
}

// answer is a value the look-ahead found, and the tier that served it.
type answer struct {
	v   any
	src plan.Source
}

// newBatchMemo returns a batch's memo over m, its table empty.
func newBatchMemo(m *StageMemo) *batchMemo {
	return &batchMemo{StageMemo: m, found: map[plan.Key]answer{}}
}

// keep files what the look-ahead found for k.
func (m *batchMemo) keep(k plan.Key, v any, src plan.Source) {
	m.mu.Lock()
	m.found[k] = answer{v, src}
	m.mu.Unlock()
}

// GetOrCompute implements plan.Memo: the look-ahead's answer for key, once,
// else the shared StageMemo's.
func (m *batchMemo) GetOrCompute(slot plan.Executor, key plan.Key, hint any, compute func() (any, error)) (any, plan.Source, error) {
	m.mu.Lock()
	a, ok := m.found[key]
	delete(m.found, key)
	m.mu.Unlock()
	if ok {
		return a.v, a.src, nil
	}
	return m.StageMemo.GetOrCompute(slot, key, hint, compute)
}

// probeVerify is the verify-probe node's one look at a verifyrun key before
// the batch decides whether to build a clone: this batch's table (a record
// the prefetch found, or a duplicate member's key probed already), then
// memory, then the disk loader. What it finds is kept for the member's
// node, so true means this memo answers the key.
func (m *batchMemo) probeVerify(key plan.Key) bool {
	m.mu.Lock()
	_, ok := m.found[key]
	m.mu.Unlock()
	if ok {
		return true
	}
	st := memoStageOf(key.Stage)
	if v, ok := st.get(m.StageMemo, key.Hash); ok {
		m.keep(key, v, plan.SourceMemory)
		return true
	}
	if v, ok := m.loadStored(st, key.Hash, nil); ok {
		m.keep(key, v, plan.SourceDisk)
		return true
	}
	return false
}

func (m *StageMemo) count(name string) {
	if m.counters != nil && name != "" {
		m.counters.Add(name, 1)
	}
}
