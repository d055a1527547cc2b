package dserve

import (
	"context"
	"sort"
	"strings"
	"sync"

	"negativaml/internal/elfx"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// The cluster hot path: batched scatter-gather peer lookups plus hedged
// replica reads.
//
// One HTTP round trip per stage key would make a peer-warm batch's wall
// time scale with its artifact count, so DebloatBatch batches its remote
// reads at three points — negativa.Batch hands its Prefetch hook the detect
// keys, the compact keys derived from the union, and, from the verify-probe
// node, the verifyrun keys derived from the compacted set: each call takes
// the batch's ready keys, groups them by replica set, and issues one
// POST /v1/peer/lookup-batch per group, hedged through
// cluster.HedgedCall so a stalled replica costs its p95 latency, not the
// transport timeout. Found values land in the local tiers (registry /
// result cache / verify records) before the stage nodes consult the memo,
// so the batch's wall clock is bounded by the slowest single round trip,
// not the key count. The prefetch is the only remote read: a stage node
// whose key it did not plant — a clean miss, or a replica set that could
// not answer — goes straight to local compute, never back to the replicas
// the prefetch just asked.
//
// A singleflight table spans the prefetch and the stage nodes
// (StageMemo.resolve): a key whose value stays in its memory tier never has
// a remote read and a local compute, or two local computes, run for it,
// whichever side asks first.

// prefetchItem is one stage key the batch will need, with the memo hint
// its value must be decoded against (the compact stage's live library).
// primary is filled by PrefetchLookups: the key's first owner, so a value
// another replica answered can be counted as a replica read.
type prefetchItem struct {
	key     plan.Key
	hint    any
	primary string
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
// pool against the leader re-acquiring its own slot. slot is the executor
// the calling node's graph runs under; nil means the caller holds none.
func (m *StageMemo) awaitFlight(slot plan.Executor, k plan.Key) {
	m.flightMu.Lock()
	ch := m.flights[k]
	m.flightMu.Unlock()
	if ch == nil {
		return
	}
	if slot != nil {
		slot.Release()
		defer slot.Acquire()
	}
	<-ch
}

// ---- Planted-value marks ----

// markPlanted records that the key's memory-tier value was put there from
// another tier — src — by a batch lookup (SourcePeer) or a verify probe
// (SourceDisk); the next local-tier hit reads back as src (consumeSource),
// so tier attribution names the tier that actually served the batch.
func (m *StageMemo) markPlanted(k plan.Key, src plan.Source) {
	m.hotMu.Lock()
	if m.planted == nil {
		m.planted = map[plan.Key]plan.Source{}
	}
	m.planted[k] = src
	m.hotMu.Unlock()
}

// consumeSource resolves a local-tier hit's attribution: a marked key reads
// as the tier that planted it exactly once, everything else keeps the
// tier's own source.
func (m *StageMemo) consumeSource(k plan.Key, def plan.Source) plan.Source {
	m.hotMu.Lock()
	defer m.hotMu.Unlock()
	if src, ok := m.planted[k]; ok {
		delete(m.planted, k)
		return src
	}
	return def
}

// clearMarks drops whatever marks remain for the given keys. Stage nodes
// consume their marks on the normal path, but a batch that aborts between
// plant and consumption (a key-fn or upstream node error) would otherwise
// leave entries behind forever. DebloatBatch calls it on every exit,
// scoping the marks to the batch that planted them.
func (m *StageMemo) clearMarks(keys []plan.Key) {
	m.hotMu.Lock()
	for _, k := range keys {
		delete(m.planted, k)
	}
	m.hotMu.Unlock()
}

// countRoundTrip tallies one read-path peer round trip — the numerator
// the batching win is asserted with (peer.round_trips).
func (m *StageMemo) countRoundTrip() { m.count("peer.round_trips") }

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
// local tiers under the singleflight table before the stage nodes consult
// the memo. Keys already held locally (memory, or the castore for compacts
// and verify records) are skipped — the prefetch never re-fetches what a
// disk probe will serve faster. Safe to call concurrently with stage nodes
// resolving the same keys. slot is the executor the calling node holds a
// slot of, yielded for the round trips; nil means the caller holds none.
func (m *StageMemo) PrefetchLookups(slot plan.Executor, items []prefetchItem) {
	if m.cluster == nil || len(items) == 0 {
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
		if !m.beginFlight(it.key) {
			continue // a stage node is resolving this key already
		}
		it.primary = owners[0]
		sort.Strings(remotes)
		sig := strings.Join(remotes, ",")
		g := groups[sig]
		if g == nil {
			g = &lookupGroup{remotes: remotes}
			groups[sig] = g
		}
		g.items = append(g.items, it)
	}
	if len(groups) == 0 {
		return
	}
	// Fan the groups out concurrently with the caller's worker slot
	// yielded: this is network wait, and the stage nodes whose keys are
	// not in any group should run meanwhile.
	if slot != nil {
		slot.Release()
		defer slot.Acquire()
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
// the network: memory or the castore disk tier (replication pushed this
// node its co-owned artifacts, and the disk tier serves them without a
// round trip).
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
	case negativa.StageVerifyRun:
		if _, ok := m.verify.get(k.Hash); ok {
			return true
		}
		return m.store != nil && m.store.Has(kindVerify, k.Hash)
	}
	return true
}

// prefetchGroup runs one group's batch lookup: hedged across the group's
// two fastest members, falling back through the rest, then plants every
// found value. Flights end only after the plant, so a waiter that raced us
// re-probes into a hit.
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
	failed := map[string]bool{} // peers whose attempt failed un-cancelled
	attempt := func(ctx context.Context, peer string) (any, bool, error) {
		m.countRoundTrip()
		var resp peerBatchLookupResponse
		err := m.cluster.PostJSONCtx(ctx, peer, "/v1/peer/lookup-batch", req, &resp)
		if err != nil {
			if ctx.Err() == nil {
				// Any non-2xx answer or transport error is a peer-tier
				// failure, counted as a fallback like every other failed
				// peer read (the health plane already observed the
				// transport fault itself).
				m.count("peer.fallbacks")
				mu.Lock()
				failed[peer] = true
				mu.Unlock()
			}
			return nil, false, err
		}
		return &resp, true, nil
	}
	v, from, ok := m.cluster.HedgedCall(remotes, attempt)
	if !ok {
		// The race (primary, maybe a hedge) failed; try the rest plainly.
		for _, r := range remotes[1:] {
			mu.Lock()
			tried := failed[r]
			mu.Unlock()
			if tried {
				continue
			}
			if rv, rok, _ := attempt(context.Background(), r); rok {
				v, from, ok = rv, r, true
				break
			}
		}
	}
	if !ok {
		m.count("peer.batch_failed")
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
			m.count("peer.misses")
			continue
		}
		switch it.key.Stage {
		case negativa.StageDetect:
			fp, wid, _ := negativa.SplitDetectHash(it.key.Hash)
			p, err := negativa.DecodeProfile(lr.Profile, fp, wid)
			if err != nil {
				m.count("peer.fallbacks")
				continue
			}
			pk := ProfileKey{Install: fp, Workload: wid}
			m.registry.Put(pk, p)
			if m.replicateProfile != nil {
				m.replicateProfile(pk, p, lr.Profile, nil)
			}
		case negativa.StageCompact:
			lib, _ := it.hint.(*elfx.Library)
			ld, err := negativa.DecodeRecord(lib, lr.Record)
			if err != nil {
				m.count("peer.fallbacks")
				continue
			}
			// Replicate toward demand: the record goes, as received, into
			// this node's castore behind the batch, so the next miss here
			// is a disk hit, not another network hop. No peers: they
			// already hold it.
			m.cache.Put(it.key.Hash, ld)
			if m.storeResult != nil {
				m.storeResult(it.key.Hash, ld, lr.Record, nil)
			}
		case negativa.StageVerifyRun:
			if lr.Verify == nil {
				m.count("peer.fallbacks")
				continue
			}
			// Memory, and behind the batch this node's own store — the same
			// replicate-toward-demand rule.
			m.verify.put(it.key.Hash, lr.Verify)
			if m.recordVerify != nil {
				m.recordVerify(it.key.Hash, lr.Verify, nil)
			}
		default:
			continue
		}
		m.markPlanted(it.key, plan.SourcePeer)
		m.count("peer.hits")
		if from != it.primary {
			m.count("peer.replica_reads")
		}
	}
}
