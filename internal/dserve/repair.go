package dserve

// The replication plane: keeps every stage artifact present on all R
// owners of its ring key. Two mechanisms cooperate, and both reach a peer
// only through pushObjects — one PUT /v1/peer/objects carrying many
// objects, each checked against its castore frame's sum on the receiver:
//
//   - The write-behind (writeBehind) takes every new value of a memoized
//     stage, as the record its disk tier keeps, into the local store and
//     a queue per live remote owner, sent when the batch ends
//     (flushWriteBack). No library image travels; the install push does.
//   - Anti-entropy repair (RepairNow, driven by the RepairInterval loop)
//     walks the locally held replicable objects, stat-probes their remote
//     owners in chunks, and sends each chunk's absent objects in one
//     request: it heals a node that joined empty, or a replica that missed
//     write-backs while it was down. LeaveCluster runs the same sweep to
//     hand primary-owned objects to the owners the ring resolves to once
//     this node is gone.

import (
	"bytes"
	"io"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/plan"
)

// repairStatChunk bounds one stat probe's object list, well under the
// handler's maxStatObjects.
const repairStatChunk = 256

// spillConcurrency bounds the write-behind's concurrent local writers. A
// Put hashes its record outside the store lock and then appends one entry
// to a segment (its fsync waits for SyncDirs); a few at once overlap their
// hashing.
const spillConcurrency = 4

// frameRecord frames a record the write-behind sealed: the one hash of its
// bytes on this node. A variable so a test can count the calls.
var frameRecord = castore.NewFrame

// pendingPush is one owner's write-back queue: a body and its entry count.
type pendingPush struct {
	body []byte
	n    int
}

// writeBehind is the stage memo's one write hook, and the one way a stage
// artifact leaves memory: never inside the stage node. The value's record
// — rec as received, else sealed and framed here, once — joins each named
// peer's queue and is put to the local store, at most spillConcurrency
// writers at a time, all under the one frame's sum. A compact result's
// record is counted in pendingRecords until its writer finishes, so
// persistJob waits for it instead of writing it a second time; no manifest
// names anything else. A failed local put only costs durability, so it is
// counted, not fatal. Close and WaitReplication cover every goroutine
// started here.
func (s *Service) writeBehind(st *memoStage, hash string, v any, rec *castore.Frame, peers []string) {
	if s.store == nil && len(peers) == 0 {
		return
	}
	if rec == nil {
		raw, err := st.seal(hash, v)
		if err != nil {
			return
		}
		f := frameRecord(raw)
		rec = &f
	}
	record := st.kind == kindRecord && s.store != nil
	s.writeMu.Lock()
	for _, peer := range peers {
		q := s.writeBack[peer]
		if q == nil {
			q = &pendingPush{}
			s.writeBack[peer] = q
		}
		q.body = castore.AppendEntry(q.body, st.kind, hash, *rec)
		q.n++
	}
	if record {
		s.pendingRecords[hash]++
	}
	s.writeMu.Unlock()
	if s.store == nil {
		return
	}
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		s.writeSem <- struct{}{}
		if err := s.store.PutFrame(st.kind, hash, *rec); err != nil {
			s.Counters.Add("writebehind.errors", 1)
		}
		<-s.writeSem
		if record {
			s.writeMu.Lock()
			s.pendingRecords[hash]--
			if s.pendingRecords[hash] == 0 {
				delete(s.pendingRecords, hash)
			}
			s.writesDone.Broadcast()
			s.writeMu.Unlock()
		}
	}()
}

// flushWriteBack sends each write-back queue to its owner in one request,
// behind the batch on a replWG goroutine; objects a concurrent batch
// queued meanwhile ride along. An object the owner did not store is
// counted, and repair sends it later.
func (s *Service) flushWriteBack() {
	s.writeMu.Lock()
	queued := s.writeBack
	if len(queued) > 0 {
		s.writeBack = map[string]*pendingPush{}
	}
	s.writeMu.Unlock()
	if len(queued) == 0 {
		return
	}
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		for peer, q := range queued {
			stored := s.pushObjects(peer, q.n, bytes.NewReader(q.body), int64(len(q.body)))
			s.Counters.Add("peer.replica_writes", int64(stored))
			if failed := q.n - stored; failed > 0 {
				s.Counters.Add("peer.replica_write_errors", int64(failed))
			}
		}
	}()
}

// pushObjects is the one replication push: a multi-object body of n
// entries and length bytes (-1 when it streams) to peer in one request.
// It returns how many objects the peer answered stored: none, for a
// failed request or an answer that does not cover every entry.
func (s *Service) pushObjects(peer string, n int, body io.Reader, length int64) int {
	var resp peerObjectsResponse
	if err := s.cluster.PutStream(peer, "/v1/peer/objects", body, length, &resp); err != nil || len(resp.Stored) != n {
		return 0
	}
	return countTrue(resp.Stored)
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

// WaitReplication blocks until every write-behind started so far has
// finished (succeeded or given up), locally and on every peer; a running
// batch's write-back starts when the batch ends. Tests use it to make the
// asynchronous write plane deterministic.
func (s *Service) WaitReplication() { s.replWG.Wait() }

// forEachOwnedGroup walks the store's memoized-stage kinds (memoStages)
// and hands each locally present record, with the ring key whose owners
// must hold it, to fn. An object's key is its stage hash, so the walk
// reads no object.
func (s *Service) forEachOwnedGroup(fn func(ringKey string, ref storeRef)) {
	for i := range memoStages {
		ms := &memoStages[i]
		if !ms.durable() {
			continue
		}
		s.store.Walk(ms.kind, func(hash string, _ int64) error {
			fn(plan.Key{Stage: ms.stage, Hash: hash}.String(), storeRef{Kind: ms.kind, Key: hash})
			return nil
		})
	}
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
	return s.sendMissing(func(ringKey string) []string { return without(c.Owners(ringKey), self) })
}

// sendMissing plans, for every locally held replicable object, the peers
// targets names for its ring key — the walk yields each object once, so a
// plan holds no duplicates — then stat-probes each peer's objects in
// chunks and sends each chunk's absent objects in one request (pushChunk).
// A failed probe skips the rest of that peer for this sweep (the peer is
// likely down; the next sweep retries). It returns the objects sent.
func (s *Service) sendMissing(targets func(ringKey string) []string) int {
	plan := map[string][]storeRef{}
	s.forEachOwnedGroup(func(ringKey string, ref storeRef) {
		for _, peer := range targets(ringKey) {
			plan[peer] = append(plan[peer], ref)
		}
	})
	streamed := 0
	for peer, refs := range plan {
		for start := 0; start < len(refs); start += repairStatChunk {
			chunk := refs[start:min(start+repairStatChunk, len(refs))]
			var resp peerStatResponse
			err := s.cluster.PostJSON(peer, "/v1/peer/stat", peerStatRequest{Objects: chunk}, &resp)
			if err != nil || len(resp.Present) != len(chunk) {
				s.Counters.Add("repair.probe_errors", 1)
				break
			}
			var absent []storeRef
			for i, ref := range chunk {
				if !resp.Present[i] {
					absent = append(absent, ref)
				}
			}
			n := s.pushChunk(peer, absent)
			streamed += n
			if failed := len(absent) - n; failed > 0 {
				s.Counters.Add("repair.stream_errors", int64(failed))
			}
		}
	}
	if streamed > 0 {
		s.Counters.Add("repair.objects_streamed", int64(streamed))
	}
	return streamed
}

// pushChunk streams the stored objects refs to peer in one request, each
// pinned against eviction until the request ends; one the store no longer
// holds is not sent. It returns how many the peer stored.
func (s *Service) pushChunk(peer string, refs []storeRef) int {
	st := s.store
	var held []storeRef
	for _, r := range refs {
		if st.Retain(r.Kind, r.Key) {
			held = append(held, r)
		}
	}
	if len(held) == 0 {
		return 0
	}
	defer func() {
		for _, r := range held {
			st.Release(r.Kind, r.Key)
		}
	}()
	pr, pw := io.Pipe()
	exported := make(chan struct{})
	go func() {
		defer close(exported)
		var err error
		for _, r := range held {
			if err = st.ExportEntry(r.Kind, r.Key, pw); err != nil {
				break
			}
		}
		pw.CloseWithError(err)
	}()
	n := s.pushObjects(peer, len(held), pr, -1)
	pr.Close() // a request that ended early stops the export
	<-exported
	return n
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
		n := s.sendMissing(func(ringKey string) []string {
			if owners := c.Owners(ringKey); len(owners) == 0 || owners[0] != self {
				return nil
			}
			return c.OwnersExcluding(self, ringKey)
		})
		if n > 0 {
			s.Counters.Add("repair.handoff_streamed", int64(n))
		}
	}
	c.Leave()
	c.Close()
}
