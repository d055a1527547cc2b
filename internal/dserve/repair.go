package dserve

// The replication plane: keeps every stage artifact present on all R
// owners of its ring key. Two mechanisms cooperate:
//
//   - The write-behind (writeBehind, fed by writeStage): the stage memo
//     hands every new value of a memoized stage here, as the record its
//     disk tier keeps (memoStages). The record — a compact result's library
//     image first — goes to the local store, when there is one, and to the
//     live remote owners, behind the batch: new artifacts converge without
//     waiting for a repair sweep.
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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/elfx"
	"negativaml/internal/plan"
)

// repairStatChunk bounds one stat probe's object list, well under the
// handler's maxStatObjects.
const repairStatChunk = 256

// replObject is one object of a write-behind.
type replObject struct {
	kind, key string
	payload   []byte
	// digest, set on a library image, is its content digest (key is its
	// hex): castore writes it into the header instead of hashing the
	// image a second time.
	digest *[sha256.Size]byte
}

// put stores o in st, the image under its digest.
func (o replObject) put(st *castore.Store) error {
	if o.digest != nil {
		return st.PutContent(o.kind, *o.digest, o.payload)
	}
	return st.Put(o.kind, o.key, o.payload)
}

// frame is o in castore's wire form, the image's header carrying its
// digest.
func (o replObject) frame() []byte {
	if o.digest != nil {
		return castore.FrameContent(*o.digest, o.payload)
	}
	return castore.Frame(o.payload)
}

// resultObjects lists a compact result's two objects in write order: the
// library image (shared across results by digest), then the record, so a
// record never lands without the image it decodes against.
func resultObjects(hash string, lib *elfx.Library, rec []byte) []replObject {
	d := lib.ContentDigest()
	return []replObject{
		{kind: kindLib, key: hex.EncodeToString(d[:]), payload: lib.Data, digest: &d},
		{kind: kindRecord, key: hash, payload: rec},
	}
}

// writeStage is the stage memo's one write-behind hook: a memoized stage's
// value, as the record its disk tier keeps, into the local store and to the
// named replica peers. rec, when non-nil, is the record the value arrived
// as (a prefetched value is stored as received); otherwise it is encoded
// here. A compact result's library image goes first, so a record never
// lands without what it decodes against. A verify record is ordered against
// nothing (no manifest names it, and a lost one costs a re-run), and is
// smaller than the stat probe that would ask about it, so peers are sent it
// unprobed.
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
	okey := st.objectKey(hash)
	objects := []replObject{{kind: st.kind, key: okey, payload: rec}}
	if st.image != nil {
		objects = resultObjects(okey, st.image(v), rec)
	}
	s.writeBehind(objects, peers, st.probe)
}

// spillConcurrency bounds the write-behind's concurrent local writers. A
// Put is a temp write and a rename (its fsyncs wait for SyncDirs); a few at
// once overlap their file-system latency.
const spillConcurrency = 4

// writeBehind is the one way a stage artifact leaves memory: never inside
// the stage node, so a batch does not wait on its own bookkeeping. The
// peer pushes start at once (sendObjects, probing first when probe is set);
// beside them, the objects are Put to the local store in order, at most
// spillConcurrency writers at a time. A compact result's record is counted
// in pendingRecords until its writer finishes, so persistJob waits for it
// instead of writing it a second time; nothing else is waited on, since no
// manifest names it. A failed local Put only costs durability — the memory tier holds the
// value — so it is counted, not fatal. Close and WaitReplication cover
// every goroutine started here.
func (s *Service) writeBehind(objects []replObject, peers []string, probe bool) {
	if len(peers) > 0 {
		s.replWG.Add(1)
		go func() {
			defer s.replWG.Done()
			s.sendObjects(peers, objects, probe)
		}()
	}
	if s.store == nil {
		return
	}
	record := ""
	if last := objects[len(objects)-1]; last.kind == kindRecord {
		record = last.key
		s.writeMu.Lock()
		s.pendingRecords[record]++
		s.writeMu.Unlock()
	}
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		s.writeSem <- struct{}{}
		for _, o := range objects {
			if err := o.put(s.store); err != nil {
				s.Counters.Add("writebehind.errors", 1)
				break // never a record without its image
			}
		}
		<-s.writeSem
		if record != "" {
			s.writeMu.Lock()
			s.pendingRecords[record]--
			if s.pendingRecords[record] == 0 {
				delete(s.pendingRecords, record)
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

// sendObjects streams the objects, in order, to each peer; with probe set
// it first asks the peer which it already holds and skips those.
func (s *Service) sendObjects(peers []string, objects []replObject, probe bool) {
	if len(peers) == 0 {
		return
	}
	framed := make([][]byte, len(objects))
	refs := make([]peerObjectRef, len(objects))
	for i, o := range objects {
		framed[i] = o.frame()
		refs[i] = peerObjectRef{Kind: o.kind, Key: o.key}
	}
	for _, peer := range peers {
		skip := make([]bool, len(objects))
		var resp peerStatResponse
		if probe && s.cluster.PostJSON(peer, "/v1/peer/stat", peerStatRequest{Objects: refs}, &resp) == nil && len(resp.Present) == len(objects) {
			copy(skip, resp.Present)
		}
		for i, o := range objects {
			if skip[i] {
				continue
			}
			err := s.cluster.PutStream(peer, "/v1/peer/objects/"+o.kind+"/"+o.key, bytes.NewReader(framed[i]), int64(len(framed[i])))
			if err != nil {
				s.Counters.Add("peer.replica_write_errors", 1)
				break // the peer is struggling; repair will retry later
			}
			s.Counters.Add("peer.replica_writes", 1)
		}
	}
}

// WaitReplication blocks until every write-behind started so far has
// finished (succeeded or given up), locally and on every peer. Tests use it
// to make the asynchronous write plane deterministic.
func (s *Service) WaitReplication() { s.replWG.Wait() }

// forEachOwnedGroup walks the store's memoized-stage kinds (memoStages)
// and hands each replication group — a ring key plus the locally present
// objects that must live wherever that key's owners are — to fn: a record
// under its stage key, behind the library image it decodes against when
// the store holds one. A stage whose object key is not its hash reads the
// hash from the record's head.
func (s *Service) forEachOwnedGroup(fn func(ringKey string, refs []peerObjectRef)) {
	st := s.store
	for i := range memoStages {
		ms := &memoStages[i]
		st.Walk(ms.kind, func(okey string, _ int64) error {
			hash, image, ok := okey, "", true
			if ms.stored != nil {
				raw, _ := st.Get(ms.kind, okey)
				hash, image, ok = ms.stored(okey, raw)
			}
			if !ok {
				return nil
			}
			var refs []peerObjectRef
			if image != "" && st.Has(kindLib, image) {
				refs = append(refs, peerObjectRef{Kind: kindLib, Key: image})
			}
			fn(plan.Key{Stage: ms.stage, Hash: hash}.String(), append(refs, peerObjectRef{Kind: ms.kind, Key: okey}))
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

func (p *repairPlan) add(peer string, refs []peerObjectRef) {
	for _, r := range refs {
		id := plannedPush{peer, r.Kind, r.Key}
		if _, dup := p.seen[id]; dup {
			continue
		}
		p.seen[id] = struct{}{}
		p.byPeer[peer] = append(p.byPeer[peer], r)
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
	rp := newRepairPlan()
	s.forEachOwnedGroup(func(ringKey string, refs []peerObjectRef) {
		for _, owner := range c.Owners(ringKey) {
			if owner != self {
				rp.add(owner, refs)
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
		s.forEachOwnedGroup(func(ringKey string, refs []peerObjectRef) {
			owners := c.Owners(ringKey)
			if len(owners) == 0 || owners[0] != self {
				return
			}
			for _, o := range c.OwnersExcluding(self, ringKey) {
				rp.add(o, refs)
			}
		})
		if n := s.executeRepairPlan(rp); n > 0 {
			s.Counters.Add("repair.handoff_streamed", int64(n))
		}
	}
	c.Leave()
	c.Close()
}
