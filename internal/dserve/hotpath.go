package dserve

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// The cluster hot path: batched scatter-gather peer lookups plus hedged
// replica reads.
//
// Before this layer, a peer-warm batch paid one HTTP round trip per stage
// key (15 keys → 15 round trips) and each key probed its replicas
// sequentially — wall time scaled with the number of artifacts. Now
// DebloatBatch front-loads two prefetch nodes (one for detect keys, one
// for compact keys derived from the union): each collects the batch's
// ready keys, groups them by replica set, and issues one
// POST /v1/peer/lookup-batch per group, hedged through
// cluster.HedgedCall so a stalled replica costs its p95 latency, not the
// transport timeout. Found values land in the local tiers (registry /
// result cache) before the stage nodes consult the memo, so the batch's
// wall clock is bounded by the slowest single round trip, not the key
// count. Keys every replica missed are marked, and the stage node skips
// its own lookup probe — straight to remote execution (detect) or local
// compute — so the cold path sheds its probe round trips too.
//
// A singleflight table spans the prefetch and on-demand paths: one stage
// key never has two remote reads (or two local computes racing a
// prefetch) in flight at once, whichever path asks first.

// prefetchItem is one stage key the batch will need, with the memo hint
// its value must be decoded against (the compact stage's live library).
type prefetchItem struct {
	key  plan.Key
	hint any
}

// ---- Singleflight across prefetch and on-demand reads ----

// beginFlight claims the key's flight slot. True means the caller is the
// leader and must endFlight when its local tiers hold the outcome (or the
// attempt failed); false means another reader owns the key right now.
func (m *StageMemo) beginFlight(k plan.Key) bool {
	m.flightMu.Lock()
	defer m.flightMu.Unlock()
	if m.flights == nil {
		m.flights = map[plan.Key]chan struct{}{}
	}
	if _, inFlight := m.flights[k]; inFlight {
		return false
	}
	m.flights[k] = make(chan struct{})
	return true
}

// endFlight releases the key's flight slot, waking every waiter. Callers
// plant results into the local tiers before calling it, so woken waiters
// re-probe and hit.
func (m *StageMemo) endFlight(k plan.Key) {
	m.flightMu.Lock()
	ch := m.flights[k]
	delete(m.flights, k)
	m.flightMu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// awaitFlight blocks until the key's current flight (if any) ends,
// yielding the caller's executor slot for the duration — a waiter is pure
// wait, and holding a worker slot across it could deadlock a Workers=1
// pool against the leader re-acquiring its own slot. slot, when non-nil,
// is the calling node's own executor (see slotOf).
func (m *StageMemo) awaitFlight(slot plan.Executor, k plan.Key) {
	m.flightMu.Lock()
	ch := m.flights[k]
	m.flightMu.Unlock()
	if ch == nil {
		return
	}
	if ex := m.slotOf(slot); ex != nil {
		ex.Release()
		defer ex.Acquire()
	}
	<-ch
}

// ---- Prefetch outcome marks ----

// markPrefetched records that the key's value was planted into the local
// tiers by a batch lookup; the next local-tier hit reads back as
// SourcePeer (consumeSource), keeping tier attribution and peer-hit
// accounting identical to the per-key path.
func (m *StageMemo) markPrefetched(k plan.Key) {
	m.hotMu.Lock()
	if m.prefetched == nil {
		m.prefetched = map[plan.Key]bool{}
	}
	m.prefetched[k] = true
	m.hotMu.Unlock()
}

// consumeSource resolves a local-tier hit's attribution: a key the
// prefetch planted reads as SourcePeer exactly once, everything else keeps
// the tier's own source.
func (m *StageMemo) consumeSource(k plan.Key, def plan.Source) plan.Source {
	m.hotMu.Lock()
	defer m.hotMu.Unlock()
	if m.prefetched[k] {
		delete(m.prefetched, k)
		return plan.SourcePeer
	}
	return def
}

// markMiss records that a live replica answered found=false for the key
// in a batch lookup; consumeMiss hands the mark to the stage node, which
// then skips its own lookup probe and escalates straight to remote
// execution or local compute. One replica's clean miss stands in for the
// set's: write-back replication converges replicas immediately, and the
// rare stale mark only costs an execute request the owner answers from
// its memo.
func (m *StageMemo) markMiss(k plan.Key) {
	m.hotMu.Lock()
	if m.missed == nil {
		m.missed = map[plan.Key]bool{}
	}
	m.missed[k] = true
	m.hotMu.Unlock()
}

func (m *StageMemo) consumeMiss(k plan.Key) bool {
	m.hotMu.Lock()
	defer m.hotMu.Unlock()
	if m.missed[k] {
		delete(m.missed, k)
		return true
	}
	return false
}

// clearMarks drops whatever prefetch outcome marks remain for the given
// keys. Stage nodes consume their marks on the normal path, but a batch
// that aborts between prefetch and consumption (a key-fn or upstream node
// error) would otherwise leave entries behind forever — and a stale miss
// mark would make a later batch for the same key skip its lookup probe
// even though a replica may hold the value by then. DebloatBatch calls it
// on every exit, scoping the marks to the batch that planted them.
func (m *StageMemo) clearMarks(keys []plan.Key) {
	m.hotMu.Lock()
	for _, k := range keys {
		delete(m.prefetched, k)
		delete(m.missed, k)
	}
	m.hotMu.Unlock()
}

// markNoBatch remembers a peer that answered 404 to the lookup-batch
// route — a node predating it. The mark is per-process: batches skip the
// peer from then on and its keys degrade to per-key lookups.
func (m *StageMemo) markNoBatch(peer string) {
	m.hotMu.Lock()
	if m.noBatch == nil {
		m.noBatch = map[string]bool{}
	}
	if !m.noBatch[peer] {
		m.noBatch[peer] = true
		m.count("peer.batch_unsupported")
	}
	m.hotMu.Unlock()
}

func (m *StageMemo) batchCapable(peer string) bool {
	m.hotMu.Lock()
	defer m.hotMu.Unlock()
	return !m.noBatch[peer]
}

// countRoundTrip tallies one read-path peer round trip — the numerator
// the batching win is asserted with (peer.round_trips).
func (m *StageMemo) countRoundTrip() { m.count("peer.round_trips") }

// ---- Hedged per-key lookup (the on-demand path's replica read) ----

// hedgedLookup reads one stage key through its remote replicas: the first
// two in latency order race under cluster.HedgedCall (the hedge fires at
// the primary target's p95), the rest are tried sequentially only if both
// miss or fail. Returns the found response and the peer that served it.
// The caller's executor slot is yielded for the whole exchange — it is
// pure network wait; slot, when non-nil, is the calling node's own
// executor (see slotOf).
func (m *StageMemo) hedgedLookup(slot plan.Executor, remotes []string, req peerLookupRequest) (*peerLookupResponse, string, bool) {
	if len(remotes) == 0 {
		return nil, "", false
	}
	if ex := m.slotOf(slot); ex != nil {
		ex.Release()
		defer ex.Acquire()
	}
	var mu sync.Mutex
	done := map[string]bool{} // peers whose attempt completed un-cancelled
	attempt := func(ctx context.Context, peer string) (any, bool, error) {
		m.countRoundTrip()
		var lr peerLookupResponse
		err := m.cluster.PostJSONCtx(ctx, peer, "/v1/peer/lookup", req, &lr)
		if err != nil {
			if ctx.Err() == nil {
				m.count("peer.fallbacks")
				mu.Lock()
				done[peer] = true
				mu.Unlock()
			}
			return nil, false, err
		}
		mu.Lock()
		done[peer] = true
		mu.Unlock()
		if !lr.Found {
			m.count("peer.misses")
			return nil, false, nil
		}
		return &lr, true, nil
	}
	if v, peer, ok := m.cluster.HedgedCall(remotes, attempt); ok {
		return v.(*peerLookupResponse), peer, true
	}
	// Both racers missed or failed; walk the remaining replicas one at a
	// time, skipping any the race already answered for.
	for _, r := range remotes[1:] {
		mu.Lock()
		tried := done[r]
		mu.Unlock()
		if tried {
			continue
		}
		if v, ok, _ := attempt(context.Background(), r); ok {
			return v.(*peerLookupResponse), r, true
		}
	}
	return nil, "", false
}

// ---- Batch prefetch ----

// lookupGroup is one replica set's slice of a prefetch: every key whose
// remote owners are exactly this set, answered by any one member.
type lookupGroup struct {
	remotes []string
	items   []prefetchItem
}

// PrefetchLookups warms the local tiers for a batch's stage keys in as
// few round trips as the ring has replica groups: keys are grouped by
// remote replica set, each group goes out as one (hedged)
// POST /v1/peer/lookup-batch, and found values are planted into the
// registry / result cache under the singleflight table before the stage
// nodes consult the memo. Keys already held locally (memory, or the
// castore for compacts) are skipped — the prefetch never re-fetches what
// a disk probe will serve faster. Safe to call concurrently with
// on-demand reads of the same keys.
func (m *StageMemo) PrefetchLookups(items []prefetchItem) {
	if m.cluster == nil || m.disableBatch || len(items) == 0 {
		return
	}
	self := m.cluster.Self()
	groups := map[string]*lookupGroup{}
	for _, it := range items {
		if m.localProbe(it.key) {
			continue
		}
		owners := m.cluster.Owners(it.key.String())
		remotes := without(owners, self)
		if len(remotes) == 0 {
			continue
		}
		capable := remotes[:0:0]
		for _, r := range remotes {
			if m.batchCapable(r) {
				capable = append(capable, r)
			}
		}
		if len(capable) == 0 {
			continue
		}
		if !m.beginFlight(it.key) {
			continue // an on-demand read owns this key already
		}
		sorted := append([]string(nil), capable...)
		sort.Strings(sorted)
		sig := strings.Join(sorted, ",")
		g := groups[sig]
		if g == nil {
			g = &lookupGroup{remotes: sorted}
			groups[sig] = g
		}
		g.items = append(g.items, it)
	}
	if len(groups) == 0 {
		return
	}
	// Fan the groups out concurrently with the caller's worker slot
	// yielded: this is network wait, and the stage nodes whose keys are
	// not in any group should run meanwhile. The prefetch glue node's
	// runFn has no per-node slot to hand down, so this yield goes through
	// the attached executor; the node roots the whole batch's dependent
	// chain, so its re-acquisition is never the low-priority queue-jump
	// the slot threading elsewhere prevents.
	if m.exec != nil {
		m.exec.Release()
		defer m.exec.Acquire()
	}
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *lookupGroup) {
			defer wg.Done()
			m.prefetchGroup(g)
		}(g)
	}
	wg.Wait()
}

// localProbe reports whether the key's value is already reachable without
// the network: registry memory for detect keys; cache memory or the
// castore disk tier for compact keys (replication pushed this node its
// co-owned artifacts, and the stage node's LoadStored serves them without
// a round trip).
func (m *StageMemo) localProbe(k plan.Key) bool {
	switch k.Stage {
	case negativa.StageDetect:
		fp, wid, ok := negativa.SplitDetectHash(k.Hash)
		if !ok {
			return true // malformed; nothing to prefetch
		}
		return m.registry.Has(ProfileKey{Install: fp, Workload: wid})
	case negativa.StageCompact:
		return m.cache.Contains(k.Hash) || m.cache.HasStored(k.Hash)
	}
	return true
}

// prefetchGroup runs one group's batch lookup: hedged across the group's
// two fastest members, falling back through the rest, then plants every
// found value and marks every clean miss. Flights end only after the
// plant, so a waiter that raced us re-probes into a hit.
func (m *StageMemo) prefetchGroup(g *lookupGroup) {
	defer func() {
		for _, it := range g.items {
			m.endFlight(it.key)
		}
	}()
	m.cluster.SortByLatency(g.remotes)
	for off := 0; off < len(g.items); off += maxBatchLookupKeys {
		end := off + maxBatchLookupKeys
		if end > len(g.items) {
			end = len(g.items)
		}
		m.prefetchChunk(g.remotes, g.items[off:end])
	}
}

func (m *StageMemo) prefetchChunk(remotes []string, items []prefetchItem) {
	req := peerBatchLookupRequest{Keys: make([]peerLookupRequest, len(items))}
	for i, it := range items {
		req.Keys[i] = peerLookupRequest{Stage: it.key.Stage, Hash: it.key.Hash}
	}
	var mu sync.Mutex
	errs := map[string]error{}
	attempt := func(ctx context.Context, peer string) (any, bool, error) {
		m.countRoundTrip()
		var resp peerBatchLookupResponse
		err := m.cluster.PostJSONCtx(ctx, peer, "/v1/peer/lookup-batch", req, &resp)
		if err != nil {
			if ctx.Err() == nil {
				mu.Lock()
				errs[peer] = err
				mu.Unlock()
			}
			return nil, false, err
		}
		return &resp, true, nil
	}
	v, _, ok := m.cluster.HedgedCall(remotes, attempt)
	if !ok {
		// The race (primary, maybe a hedge) failed; try the rest plainly.
		for _, r := range remotes[1:] {
			mu.Lock()
			_, tried := errs[r]
			mu.Unlock()
			if tried {
				continue
			}
			if rv, rok, _ := attempt(context.Background(), r); rok {
				v, ok = rv, true
				break
			}
		}
	}
	// A peer answering 404 predates the route: remember it and let the
	// stage nodes degrade to per-key lookups. Anything else is a peer-tier
	// failure — counted as a fallback like every other failed peer read
	// (the health plane already observed the transport fault itself).
	mu.Lock()
	hardFail := false
	for peer, err := range errs {
		var perr *cluster.PeerError
		if errors.As(err, &perr) && perr.Status == 404 {
			m.markNoBatch(peer)
		} else {
			hardFail = true
			m.count("peer.fallbacks")
		}
	}
	mu.Unlock()
	if !ok {
		// An all-404 outcome is a version mismatch, not a failure: the keys
		// degrade to per-key lookups and only batch_unsupported is counted.
		if hardFail {
			m.count("peer.batch_failed")
		}
		return
	}
	resp := v.(*peerBatchLookupResponse)
	if len(resp.Results) != len(items) {
		m.count("peer.batch_failed")
		return
	}
	for i, lr := range resp.Results {
		it := items[i]
		if !lr.Found {
			m.markMiss(it.key)
			m.count("peer.misses")
			continue
		}
		switch it.key.Stage {
		case negativa.StageDetect:
			fp, wid, okh := negativa.SplitDetectHash(it.key.Hash)
			if !okh || lr.Profile == nil || lr.Profile.RunResult == nil {
				m.count("peer.fallbacks")
				continue
			}
			m.registry.Put(ProfileKey{Install: fp, Workload: wid}, lr.Profile)
			m.markPrefetched(it.key)
			m.count("peer.hits")
		case negativa.StageCompact:
			lib, _ := it.hint.(*elfx.Library)
			ld, decOK := decodePeerResult(lib, lr.Result, lr.Sparse)
			if !decOK {
				m.count("peer.fallbacks")
				continue
			}
			m.cache.Put(it.key.Hash, ld)
			m.markPrefetched(it.key)
			m.count("peer.hits")
		}
	}
}
