package dserve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"negativaml/internal/castore"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// testNode is one in-process cluster member: a full service with its own
// castore behind a real HTTP server.
type testNode struct {
	id    string
	svc   *Service
	srv   *httptest.Server
	store *castore.Store
}

func (n *testNode) close() {
	n.srv.Close()
	n.svc.Close()
	n.store.Close()
}

// startCluster boots `ids` nodes, each with its own data dir and HTTP
// server, then joins them into one ring. Probation is effectively infinite
// so a killed node stays dead for the test's duration.
func startCluster(t *testing.T, ids ...string) map[string]*testNode {
	t.Helper()
	return startClusterCfg(t, nil, nil, ids...)
}

func fetchPeerJobLib(t *testing.T, srv *httptest.Server, jobID, name string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + jobID + "/libs/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s/%s: status %d", jobID, name, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// coldThenWarm is the peer tier's contract for one request on a fresh
// three-node ring, checked from outside the memo:
//
//  1. A cold batch on node a runs every stage itself — each computes where
//     its input already is: every detect against a's install, every
//     locate+compact against a's library image. The ring builds one
//     install: a generates it (a spec request) or ingests it. A generated
//     install is offered to the remote owners of the batch's detect keys,
//     and each of them fetches a's copy; an ingested one is offered to
//     nobody.
//  2. Once write-back replication has drained, every live owner of every
//     compact key holds the result, its range set, and the library image.
//  3. The same request on b and then on c completes with no local analysis
//     and neither generates nor fetches an install, served by peers in at
//     most 8 round trips.
//  4. Every library any of the three nodes streams is byte-identical to a
//     standalone single-node DebloatBatch of the same install — the
//     differential oracle.
//
// in is the install the request resolves to. It returns a's job ID.
func coldThenWarm(t *testing.T, nodes map[string]*testNode, req JobRequest, in *mlframework.Install) string {
	t.Helper()
	a := nodes["a"]

	oracle := NewService(Config{Workers: 4, MaxSteps: 2})
	defer oracle.Close()
	workloads := make([]mlruntime.Workload, len(req.Workloads))
	for i, spec := range req.Workloads {
		w, err := spec.Workload(in)
		if err != nil {
			t.Fatal(err)
		}
		workloads[i] = w
	}
	ref, err := oracle.DebloatBatch(in, workloads, BatchOptions{MaxSteps: req.MaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.DebloatedLibs()

	// (1) the cold batch.
	stA := postJob(t, a.srv, req)
	doneA := pollDone(t, a.srv, stA.ID)
	if doneA.State != JobDone {
		t.Fatalf("node a job failed: %s", doneA.Error)
	}
	if doneA.Verified == nil || !*doneA.Verified {
		t.Fatal("node a batch must verify")
	}
	a.svc.WaitReplication()
	res := a.svc.Job(stA.ID).Result
	keys := map[string]bool{}
	for _, k := range res.libKeys {
		keys[k] = true
	}
	if got := a.svc.Counters.Get("analysis.computed"); got != int64(len(keys)) {
		t.Fatalf("node a computed %d locate+compact stages for %d compact keys", got, len(keys))
	}
	for id, n := range nodes {
		want := int64(0)
		if n == a {
			want = int64(len(req.Workloads))
		}
		if got := n.svc.Counters.Get("stage.detect.misses"); got != want {
			t.Fatalf("node %s computed %d detects, want %d: a computes all of them", id, got, want)
		}
	}
	owners := map[string]bool{}
	if req.IngestDir == "" {
		for _, wo := range res.Workloads {
			for _, id := range a.svc.Cluster().Owners(negativa.DetectKey(res.InstallFP, wo.Identity).String()) {
				if id != "a" {
					owners[id] = true
				}
			}
		}
	}
	var generated, fetched int64
	for _, n := range nodes {
		generated += n.svc.Counters.Get("installs.generated")
		fetched += n.svc.Counters.Get("installs.fetched")
	}
	wantGenerated := int64(1)
	if req.IngestDir != "" {
		wantGenerated = 0
	}
	if generated != wantGenerated || fetched != int64(len(owners)) {
		t.Fatalf("the ring generated %d installs and fetched %d: want %d generated and one fetch per remote detect owner (%d)", generated, fetched, wantGenerated, len(owners))
	}
	if errs := a.svc.Counters.Get("peer.replica_write_errors"); errs != 0 {
		t.Fatalf("write-back reported %d errors on a healthy ring", errs)
	}

	// (2) every owner holds every compact key's record, and no node stores
	// a library image.
	for i, key := range res.libKeys {
		for _, owner := range a.svc.Cluster().Owners(plan.Key{Stage: negativa.StageCompact, Hash: key}.String()) {
			if !nodes[owner].store.Has(kindRecord, key) {
				t.Fatalf("owner %s of %s's compact key lacks its record after write-back", owner, res.Libs[i].Name)
			}
		}
	}
	for id, n := range nodes {
		if c := countKind(n.store, "lib"); c != 0 {
			t.Fatalf("node %s stores %d library images", id, c)
		}
	}

	// (3) + (4) pure reuse everywhere, byte-identical to the oracle.
	ids := map[string]string{"a": stA.ID}
	for _, id := range []string{"b", "c"} {
		n := nodes[id]
		before := n.svc.Counters.Get("analysis.computed")
		hits0, trips0 := n.svc.Counters.Get("peer.hits"), n.svc.Counters.Get("peer.round_trips")
		gen0, fetched0 := n.svc.Counters.Get("installs.generated"), n.svc.Counters.Get("installs.fetched")
		st := postJob(t, n.srv, req)
		done := pollDone(t, n.srv, st.ID)
		if done.State != JobDone {
			t.Fatalf("node %s job failed: %s", id, done.Error)
		}
		if done.Verified == nil || !*done.Verified {
			t.Fatalf("node %s batch must verify", id)
		}
		// An offer left the install resident under its spec key on every
		// detect owner (an ingested tree is ingested again), so the node's
		// own batch neither generates nor fetches it.
		if g, f := n.svc.Counters.Get("installs.generated")-gen0, n.svc.Counters.Get("installs.fetched")-fetched0; g != 0 || f != 0 {
			t.Fatalf("node %s's own batch generated %d installs and fetched %d; the install should be resident", id, g, f)
		}
		if delta := n.svc.Counters.Get("analysis.computed") - before; delta != 0 {
			t.Fatalf("node %s ran locate/compact %d times locally; the ring should have absorbed all of it", id, delta)
		}
		if got := n.svc.Counters.Get("stage.detect.misses"); got != 0 {
			t.Fatalf("node %s ran %d detects locally; the ring should have absorbed all of them", id, got)
		}
		// The scatter-gather bound. This is the only batch the node has
		// run, so the counter deltas are the batch's own: two prefetch
		// phases (detect keys, then compact keys once the union fixes
		// them), each at most one lookup-batch per distinct replica-set
		// group — with 3 nodes and R=2 a requester sees at most 3 remote
		// groups — plus a hedge or two.
		if hits := n.svc.Counters.Get("peer.hits") - hits0; hits == 0 {
			t.Fatalf("node %s's warm batch hit no peers", id)
		}
		if trips := n.svc.Counters.Get("peer.round_trips") - trips0; trips > 8 {
			t.Fatalf("node %s's warm batch took %d peer round trips; batching should need at most 8", id, trips)
		}
		ids[id] = st.ID
	}
	for id, jobID := range ids {
		var rep jobReport
		if code := getJSON(t, nodes[id].srv.URL+"/v1/jobs/"+jobID+"/report", &rep); code != http.StatusOK {
			t.Fatalf("node %s report status %d", id, code)
		}
		if len(rep.Libs) != len(want) {
			t.Fatalf("node %s reports %d libraries, the oracle %d", id, len(rep.Libs), len(want))
		}
		for _, lr := range rep.Libs {
			if got := fetchPeerJobLib(t, nodes[id].srv, jobID, lr.Name); !bytes.Equal(got, want[lr.Name]) {
				t.Fatalf("library %s streamed by node %s differs from the single-node pipeline's", lr.Name, id)
			}
		}
	}
	return stA.ID
}

// TestClusterThreeNodeE2E is the sharded serving plane's acceptance test:
//
//  1. A batch on a fresh ring meets the coldThenWarm contract: computed
//     where it was submitted, replicated to its owners, reused everywhere,
//     identical to the single-node pipeline.
//  2. Reads through the peer tier replicate toward demand.
//  3. Killing node C mid-run still completes batches: the ring shrinks
//     and C-owned stages fall back (peer.fallbacks > 0).
func TestClusterThreeNodeE2E(t *testing.T) {
	nodes := startCluster(t, "a", "b", "c")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	a, b, c := nodes["a"], nodes["b"], nodes["c"]

	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  10,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
			{Model: "Transformer", Batch: 32, Device: "A100"},
		},
		MaxSteps: 2,
	}
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: req.TailLibs})
	if err != nil {
		t.Fatal(err)
	}

	// ---- Phases 1+2: cold on A, pure reuse on B and C ----
	jobA := coldThenWarm(t, nodes, req, in)
	// A generated the install, so it offered it to the detect keys' owners.
	if a.svc.Counters.Get("peer.offers") == 0 {
		t.Fatal("node A should have offered its install to the detect keys' owners")
	}
	if hits := b.svc.Counters.Get("peer.hits"); hits == 0 {
		t.Fatal("node B should have read stages through their owning peers")
	}
	// Read-through replicates toward demand: compact results B does not
	// own reached it only through peer lookups, and were written into its
	// own castore. The write is behind the batch, so drain it before looking.
	b.svc.WaitReplication()
	demand := 0
	for _, key := range a.svc.Job(jobA).Result.libKeys {
		owners := b.svc.Cluster().Owners(plan.Key{Stage: negativa.StageCompact, Hash: key}.String())
		if slices.Contains(owners, "b") {
			continue
		}
		demand++
		if !b.store.Has(kindRecord, key) {
			t.Fatal("a peer-served result should have been written into node B's castore")
		}
	}
	if demand == 0 {
		t.Fatal("node B owns every compact key; the test exercises no demand replication")
	}

	// ---- Phase 3: kill node C; the ring degrades gracefully ----
	c.srv.Close()
	freshReq := JobRequest{
		Framework: "tensorflow", // a fresh install: every stage key is new
		TailLibs:  10,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
		},
		MaxSteps: 2,
	}
	stA2 := postJob(t, a.srv, freshReq)
	doneA2 := pollDone(t, a.srv, stA2.ID)
	if doneA2.State != JobDone {
		t.Fatalf("batch after killing node C failed: %s", doneA2.Error)
	}
	if doneA2.Verified == nil || !*doneA2.Verified {
		t.Fatal("degraded batch must still verify")
	}
	if fallbacks := a.svc.Counters.Get("peer.fallbacks"); fallbacks == 0 {
		t.Fatal("killing node C should have forced local fallbacks on node A")
	}
	// The ring shrank around the dead node.
	if n := len(a.svc.Cluster().Nodes()); n != 2 {
		t.Fatalf("node A's ring should have shrunk to 2 nodes, has %d", n)
	}

	// A second degraded submit exercises the shrunken ring: C-owned keys
	// now route to the survivors (or self) without touching C. Write-back
	// replication from the batch above raced the kill, so drain it before
	// snapshotting the transport-error count.
	a.svc.WaitReplication()
	transportErrs := a.svc.Counters.Get("peer.transport_errors")
	stA3 := postJob(t, a.srv, freshReq)
	if doneA3 := pollDone(t, a.srv, stA3.ID); doneA3.State != JobDone {
		t.Fatalf("repeat degraded batch failed: %s", doneA3.Error)
	}
	if got := a.svc.Counters.Get("peer.transport_errors"); got != transportErrs {
		t.Fatalf("shrunken ring still routed %d requests to the dead node", got-transportErrs)
	}
}

// TestConcurrentSpecBatchesOnTwoNodes: no peer runs a detection for
// another, so nothing makes a detection run once across the ring. Nodes a and
// b of a fresh ring submit the same spec batch at once: both verify, with
// images byte-identical to the single-node oracle, and each detection runs
// at most once per requester. The duplicate costs time only: a profile is
// deterministic per (install, workload identity).
func TestConcurrentSpecBatchesOnTwoNodes(t *testing.T) {
	nodes := startCluster(t, "a", "b", "c")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  6,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
			{Model: "Transformer", Batch: 32, Device: "A100"},
		},
		MaxSteps: 2,
	}
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: req.TailLibs})
	if err != nil {
		t.Fatal(err)
	}
	workloads := make([]mlruntime.Workload, len(req.Workloads))
	for i, spec := range req.Workloads {
		if workloads[i], err = spec.Workload(in); err != nil {
			t.Fatal(err)
		}
	}
	oracle := NewService(Config{Workers: 4, MaxSteps: 2})
	defer oracle.Close()
	ref, err := oracle.DebloatBatch(in, workloads, BatchOptions{MaxSteps: req.MaxSteps})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.DebloatedLibs()

	ids := map[string]string{}
	for _, id := range []string{"a", "b"} {
		ids[id] = postJob(t, nodes[id].srv, req).ID
	}
	for id, jobID := range ids {
		done := pollDone(t, nodes[id].srv, jobID)
		if done.State != JobDone || done.Verified == nil || !*done.Verified {
			t.Fatalf("node %s: state %s, error %q; the batch must verify", id, done.State, done.Error)
		}
		for name, lib := range want {
			if got := fetchPeerJobLib(t, nodes[id].srv, jobID, name); !bytes.Equal(got, lib) {
				t.Fatalf("library %s streamed by node %s differs from the single-node pipeline's", name, id)
			}
		}
	}
	var detects int64
	for _, n := range nodes {
		detects += n.svc.Counters.Get("stage.detect.misses")
	}
	w := int64(len(req.Workloads))
	t.Logf("%d workloads submitted on two nodes at once: %d detections ran across the ring (bound %d)", w, detects, 2*w)
	if detects < w || detects > 2*w {
		t.Fatalf("%d detections ran for %d workloads on two requesters, want %d to %d", detects, w, w, 2*w)
	}
}
