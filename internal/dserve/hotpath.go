package dserve

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
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
// POST /v1/peer/lookup-batch per group. cluster.HedgedCall walks the
// group's whole replica set: a failed replica hands over to the next at
// once, and a stalled one costs a fixed 2 ms hedge delay, not the
// transport timeout; this file keeps no replica loop of its own. The
// answer is castore's multi-object body, read by one castore.EntryReader
// under maxLookupAnswerBytes (readLookupAnswer): each entry's sum is
// checked and the entry matched to the key it answers; a record crosses as
// the bytes its disk tier keeps, with no JSON or base64 around it, and is
// stored here under the sum already checked (castore.Frame), so each of
// its bytes is hashed once on this node. Found values are kept in the asking batch's
// table (batchMemo), which hands each to its stage node as a peer read, and
// planted in the shared memory tier (the ResultCache) for concurrent
// batches, so the batch's wall clock is bounded by
// the slowest single round trip, not the key count. The prefetch is the
// only remote read: a stage node whose key it did not find — a clean miss,
// or a replica set that could not answer — goes straight to local compute,
// never back to the replicas the prefetch just asked.
//
// A singleflight table spans every batch's prefetch and the stage nodes
// (StageMemo.GetOrCompute): a key whose value stays in its memory tier
// never has a remote read and a local compute, or two local computes, run
// for it, whichever side asks first.

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
// attempt failed); false means another reader owns the key right now. The
// slot's channel is made by the first waiter: most flights have none.
func (m *StageMemo) beginFlight(k plan.Key) bool {
	m.flightMu.Lock()
	defer m.flightMu.Unlock()
	if m.flights == nil {
		m.flights = map[plan.Key]chan struct{}{}
	}
	if _, inFlight := m.flights[k]; inFlight {
		return false
	}
	m.flights[k] = nil
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
	ch, inFlight := m.flights[k]
	if inFlight && ch == nil {
		ch = make(chan struct{})
		m.flights[k] = ch
	}
	m.flightMu.Unlock()
	if !inFlight {
		return
	}
	if slot != nil {
		slot.Release()
		defer slot.Acquire()
	}
	<-ch
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

// PrefetchLookups finds a batch's stage keys on the ring in as few round
// trips as the ring has replica groups: keys are grouped by remote replica
// set, each group goes out as one (hedged) POST /v1/peer/lookup-batch, and
// found values are kept in the batch's table, as SourcePeer, and planted
// into the shared memory tiers under the singleflight table before the
// stage nodes consult the memo. Keys already held locally (memory, or the
// castore for compacts and verify records) are skipped — the prefetch never
// re-fetches what a disk probe will serve faster. Safe to call concurrently
// with stage nodes resolving the same keys. slot is the executor the
// calling node holds a slot of, yielded for the round trips; nil means the
// caller holds none.
func (m *batchMemo) PrefetchLookups(slot plan.Executor, items []prefetchItem) {
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
// round trip). A key that is not memoized has nothing to prefetch.
func (m *StageMemo) localProbe(k plan.Key) bool {
	st := memoStageOf(k.Stage)
	if st == nil || m.cache.contains(k.Stage, k.Hash) {
		return true
	}
	return m.stored(st, k.Hash)
}

// prefetchGroup runs one group's batch lookup, chunk by chunk, then
// keeps and plants every found value. Flights end only after the plant, so
// a waiter that raced us re-probes into a hit.
func (m *batchMemo) prefetchGroup(g *lookupGroup) {
	defer func() {
		for _, it := range g.items {
			m.endFlight(it.key)
		}
	}()
	for off := 0; off < len(g.items); off += maxBatchLookupKeys {
		m.prefetchChunk(g.remotes, g.items[off:min(off+maxBatchLookupKeys, len(g.items))])
	}
}

// prefetchChunk asks the replica set for up to maxBatchLookupKeys keys —
// one walk over the whole set (cluster.HedgedCall) — and keeps, plants and
// writes behind every record the answer holds.
func (m *batchMemo) prefetchChunk(remotes []string, items []prefetchItem) {
	req := peerBatchLookupRequest{Keys: make([]peerLookupRequest, len(items))}
	for i, it := range items {
		req.Keys[i] = peerLookupRequest{Stage: it.key.Stage, Hash: it.key.Hash}
	}
	recs, from, ok := cluster.HedgedCall(m.cluster, remotes, func(ctx context.Context, peer string) ([]castore.Frame, error) {
		m.countRoundTrip()
		var recs []castore.Frame
		err := m.cluster.Post(ctx, peer, "/v1/peer/lookup-batch", req, func(body io.Reader) error {
			var err error
			recs, err = readLookupAnswer(body, items)
			return err
		})
		if err != nil && ctx.Err() == nil {
			// Any non-2xx answer, transport error or answer that does not
			// read whole is a peer-tier failure, counted as a fallback like
			// every other failed peer read (the health plane already
			// observed a transport fault itself).
			m.count("peer.fallbacks")
		}
		return recs, err
	})
	if !ok {
		m.count("peer.batch_failed")
		return
	}
	for i := range recs {
		it, rec := items[i], &recs[i]
		if rec.Payload() == nil {
			m.count("peer.misses")
			continue
		}
		// Every answered key is a memoized stage's: only those were asked.
		st := memoStageOf(it.key.Stage)
		val, err := st.open(it.key.Hash, it.hint, rec.Payload())
		if err != nil {
			m.count("peer.fallbacks")
			continue
		}
		// The batch's own node reads it from the table. Replicate toward
		// demand: memory, for concurrent batches, and behind the batch the
		// record, as received and under the sum already checked, into
		// this node's castore, so the next miss here is a disk hit, not
		// another network hop. No peers: they already hold it.
		m.keep(it.key, val, plan.SourcePeer)
		m.cache.put(st.stage, it.key.Hash, val)
		if m.writeStage != nil {
			m.writeStage(st, it.key.Hash, val, rec, nil)
		}
		m.count("peer.hits")
		if from != it.primary {
			m.count("peer.replica_reads")
		}
	}
}

// readLookupAnswer reads a lookup-batch answer, of at most
// maxLookupAnswerBytes, to the keys of items: entries in request order,
// each named for a key asked and whole under its frame's sum. It returns
// the records, framed, index-aligned with items, a zero frame for a key
// the answer skips (a miss). An entry cut short, past the bound, for a key
// not asked, repeated or out of order, or failing its sum fails the whole
// answer: it is a peer that does not speak the protocol, and no record of
// it is used.
func readLookupAnswer(body io.Reader, items []prefetchItem) ([]castore.Frame, error) {
	recs := make([]castore.Frame, len(items))
	e := castore.NewEntryReader(body, maxLookupAnswerBytes)
	next := 0
	for {
		kind, hash, err := e.Next()
		if err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, err
		}
		i := next
		for i < len(items) && (items[i].key.Hash != hash || memoStageOf(items[i].key.Stage).kind != kind) {
			i++
		}
		if i == len(items) {
			return nil, fmt.Errorf("dserve: lookup-batch answered %s/%.12s…, not a key asked after the last", kind, hash)
		}
		if recs[i], err = e.Frame(); err != nil {
			return nil, err
		}
		next = i + 1
	}
}
