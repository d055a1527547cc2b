package dserve

// The replication plane: keeps every stage artifact present on all R
// owners of its ring key. Two mechanisms cooperate:
//
//   - The write-behind (writeBehind, fed by writeStage): the stage memo
//     hands every new value of a memoized stage here, as the record its
//     disk tier keeps (memoStages). The record goes to the local store,
//     when there is one, and to the live remote owners, behind the batch:
//     new artifacts converge without waiting for a repair sweep. No library
//     image travels with it; the install push carries library bytes.
//   - Anti-entropy repair (RepairNow, driven by the RepairInterval loop):
//     each sweep walks the locally held replicable objects, derives each
//     group's ring key, stat-probes the remote owners in chunks, and
//     streams whatever they are missing via checksummed Export/Import.
//     This is what heals a replacement node that joined empty, or a
//     replica that missed write-backs while it was down.
//
// Both paths ride the same peer object routes (POST /v1/peer/stat,
// PUT /v1/peer/objects/{kind}/{key}); every transfer is verified by the
// castore stream checksum on the receiving side, so a severed or corrupt
// push publishes nothing there. LeaveCluster reuses the sweep machinery
// for graceful departure: primary-owned objects are handed to the owners
// the ring resolves to once this node is gone, then the node announces its
// leave and stops its membership plane.

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/plan"
)

// repairStatChunk bounds one stat probe's object list, well under the
// handler's maxStatObjects.
const repairStatChunk = 256

// writeStage is the stage memo's one write-behind hook: a memoized stage's
// value, as the record its disk tier keeps, into the local store and to the
// named replica peers. rec, when non-nil, is the record the value arrived
// as (a prefetched value is stored as received); otherwise it is encoded
// here. A verify record is smaller than the stat probe that would ask
// about it, so peers are sent it unprobed.
func (s *Service) writeStage(st *memoStage, hash string, v any, rec []byte, peers []string) {
	if s.store == nil && len(peers) == 0 {
		return
	}
	if rec == nil {
		var err error
		if rec, err = st.encode(hash, v); err != nil {
			return
		}
	}
	s.writeBehind(peerObjectRef{Kind: st.kind, Key: st.objectKey(hash)}, rec, peers, st.probe)
}

// spillConcurrency bounds the write-behind's concurrent local writers. A
// Put is a temp write and a rename (its fsyncs wait for SyncDirs); a few at
// once overlap their file-system latency.
const spillConcurrency = 4

// writeBehind is the one way a stage artifact leaves memory: never inside
// the stage node, so a batch does not wait on its own bookkeeping. The
// peer pushes start at once (sendObject, probing first when probe is set);
// beside them, the object is Put to the local store, at most
// spillConcurrency writers at a time. A compact result's record is counted
// in pendingRecords until its writer finishes, so persistJob waits for it
// instead of writing it a second time; nothing else is waited on, since no
// manifest names it. A failed local Put only costs durability — the memory
// tier holds the value — so it is counted, not fatal. Close and
// WaitReplication cover every goroutine started here.
func (s *Service) writeBehind(o peerObjectRef, payload []byte, peers []string, probe bool) {
	if len(peers) > 0 {
		s.replWG.Add(1)
		go func() {
			defer s.replWG.Done()
			s.sendObject(peers, o, payload, probe)
		}()
	}
	if s.store == nil {
		return
	}
	record := o.Kind == kindRecord
	if record {
		s.writeMu.Lock()
		s.pendingRecords[o.Key]++
		s.writeMu.Unlock()
	}
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		s.writeSem <- struct{}{}
		if err := s.store.Put(o.Kind, o.Key, payload); err != nil {
			s.Counters.Add("writebehind.errors", 1)
		}
		<-s.writeSem
		if record {
			s.writeMu.Lock()
			s.pendingRecords[o.Key]--
			if s.pendingRecords[o.Key] == 0 {
				delete(s.pendingRecords, o.Key)
			}
			s.writesDone.Broadcast()
			s.writeMu.Unlock()
		}
	}()
}

// awaitRecords blocks until no write-behind of the libraries' records is in
// flight. A count per key, not a WaitGroup: concurrent jobs add writes
// while another job waits.
func (s *Service) awaitRecords(libs []manifestLib) {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	for _, l := range libs {
		for s.pendingRecords[l.Key] > 0 {
			s.writesDone.Wait()
		}
	}
}

// sendObject streams the object to each peer; with probe set it first asks
// the peer whether it already holds it and skips the push if so. A failed
// push is counted, and repair retries it later.
func (s *Service) sendObject(peers []string, o peerObjectRef, payload []byte, probe bool) {
	framed := castore.Frame(payload)
	for _, peer := range peers {
		var resp peerStatResponse
		if probe && s.cluster.PostJSON(peer, "/v1/peer/stat", peerStatRequest{Objects: []peerObjectRef{o}}, &resp) == nil && len(resp.Present) == 1 && resp.Present[0] {
			continue
		}
		if err := s.cluster.PutStream(peer, "/v1/peer/objects/"+o.Kind+"/"+o.Key, bytes.NewReader(framed), int64(len(framed))); err != nil {
			s.Counters.Add("peer.replica_write_errors", 1)
			continue
		}
		s.Counters.Add("peer.replica_writes", 1)
	}
}

// WaitReplication blocks until every write-behind started so far has
// finished (succeeded or given up), locally and on every peer. Tests use it
// to make the asynchronous write plane deterministic.
func (s *Service) WaitReplication() { s.replWG.Wait() }

// forEachOwnedGroup walks the store's memoized-stage kinds (memoStages)
// and hands each locally present record, with the ring key whose owners
// must hold it, to fn. A stage whose object key is not its hash reads the
// hash from the record's head.
func (s *Service) forEachOwnedGroup(fn func(ringKey string, ref peerObjectRef)) {
	st := s.store
	for i := range memoStages {
		ms := &memoStages[i]
		st.Walk(ms.kind, func(okey string, _ int64) error {
			hash, ok := okey, true
			if ms.stored != nil {
				raw, _ := st.Get(ms.kind, okey)
				hash, ok = ms.stored(raw)
			}
			if ok {
				fn(plan.Key{Stage: ms.stage, Hash: hash}.String(), peerObjectRef{Kind: ms.kind, Key: okey})
			}
			return nil
		})
	}
}

// repairPlan accumulates the per-peer deduplicated object sets one sweep
// intends to probe and, where absent, push.
type repairPlan struct {
	byPeer map[string][]peerObjectRef
	seen   map[plannedPush]struct{}
}

type plannedPush struct{ peer, kind, key string }

func newRepairPlan() *repairPlan {
	return &repairPlan{byPeer: map[string][]peerObjectRef{}, seen: map[plannedPush]struct{}{}}
}

func (p *repairPlan) add(peer string, r peerObjectRef) {
	id := plannedPush{peer, r.Kind, r.Key}
	if _, dup := p.seen[id]; dup {
		return
	}
	p.seen[id] = struct{}{}
	p.byPeer[peer] = append(p.byPeer[peer], r)
}

// RepairNow runs one synchronous anti-entropy sweep and returns the number
// of objects it streamed to peers. Zero means every remote owner already
// held everything this node thinks it should — the converged state. Safe
// to call concurrently with serving; a standalone or storeless node
// returns 0 immediately.
func (s *Service) RepairNow() int {
	c := s.cluster
	if c == nil || s.store == nil {
		return 0
	}
	s.Counters.Add("repair.rounds", 1)
	self := c.Self()
	rp := newRepairPlan()
	s.forEachOwnedGroup(func(ringKey string, ref peerObjectRef) {
		for _, owner := range c.Owners(ringKey) {
			if owner != self {
				rp.add(owner, ref)
			}
		}
	})
	return s.executeRepairPlan(rp)
}

// executeRepairPlan stat-probes each peer's planned set in chunks and
// streams the objects the peer reports absent. A failed probe skips the
// rest of that peer for this sweep (the peer is likely down; the next
// sweep retries).
func (s *Service) executeRepairPlan(rp *repairPlan) int {
	streamed := 0
	for peer, refs := range rp.byPeer {
		for start := 0; start < len(refs); start += repairStatChunk {
			chunk := refs[start:min(start+repairStatChunk, len(refs))]
			var resp peerStatResponse
			err := s.cluster.PostJSON(peer, "/v1/peer/stat", peerStatRequest{Objects: chunk}, &resp)
			if err != nil || len(resp.Present) != len(chunk) {
				s.Counters.Add("repair.probe_errors", 1)
				break
			}
			for i, ref := range chunk {
				if resp.Present[i] {
					continue
				}
				if err := s.pushStoredObject(peer, ref.Kind, ref.Key); err != nil {
					s.Counters.Add("repair.stream_errors", 1)
					continue
				}
				streamed++
			}
		}
	}
	if streamed > 0 {
		s.Counters.Add("repair.objects_streamed", int64(streamed))
	}
	return streamed
}

// pushStoredObject streams one local castore object to a peer through the
// checksummed Export frame, pinning it against eviction for the duration.
func (s *Service) pushStoredObject(peer, kind, key string) error {
	st := s.store
	size, ok := st.Stat(kind, key)
	if !ok || !st.Retain(kind, key) {
		return fmt.Errorf("dserve: repair push of absent object %s/%s", kind, key)
	}
	defer st.Release(kind, key)
	pr, pw := io.Pipe()
	go func() {
		_, err := st.Export(kind, key, pw)
		pw.CloseWithError(err)
	}()
	err := s.cluster.PutStream(peer, "/v1/peer/objects/"+kind+"/"+key, pr, size+castore.HeaderSize)
	pr.CloseWithError(err)
	return err
}

// repairLoop drives periodic anti-entropy sweeps until stop closes.
func (s *Service) repairLoop(stop chan struct{}) {
	defer s.repairWG.Done()
	t := time.NewTicker(s.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.RepairNow()
		}
	}
}

// LeaveCluster gracefully departs the peer group: objects whose ring key
// this node currently owns as primary are handed to the owners the ring
// resolves to once this node is gone, the node announces its leave to
// every live peer (they drop it immediately instead of discovering the
// absence through failures), and the membership plane shuts down. Call
// during shutdown, before closing the HTTP listener is fine — handoff only
// makes outbound requests. A standalone service is a no-op.
func (s *Service) LeaveCluster() {
	c := s.cluster
	if c == nil {
		return
	}
	if s.store != nil {
		self := c.Self()
		rp := newRepairPlan()
		s.forEachOwnedGroup(func(ringKey string, ref peerObjectRef) {
			owners := c.Owners(ringKey)
			if len(owners) == 0 || owners[0] != self {
				return
			}
			for _, o := range c.OwnersExcluding(self, ringKey) {
				rp.add(o, ref)
			}
		})
		if n := s.executeRepairPlan(rp); n > 0 {
			s.Counters.Add("repair.handoff_streamed", int64(n))
		}
	}
	c.Leave()
	c.Close()
}
