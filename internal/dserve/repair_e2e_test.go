package dserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

// bootNode starts one service+server with its own fresh store; the cluster
// is attached separately so membership can vary per test.
func bootNode(t *testing.T, id string) *testNode {
	t.Helper()
	st, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(Config{Workers: 4, MaxSteps: 2, Store: st})
	srv := httptest.NewServer(NewHandler(svc))
	return &testNode{id: id, svc: svc, srv: srv, store: st}
}

// attachNode joins a booted node to the peer set under the given options
// (counters and timings are wired to the node's own sets).
func attachNode(n *testNode, urls map[string]string, opt cluster.Options) {
	opt.Counters = n.svc.Counters
	opt.Timings = n.svc.Timings
	n.svc.AttachCluster(cluster.New(n.id, urls, opt))
}

// submitBatch posts one job and polls it to completion, returning an error
// instead of failing the test — safe to call from non-test goroutines.
func submitBatch(srv *httptest.Server, req JobRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st jobStatus
	decErr := json.NewDecoder(resp.Body).Decode(&st)
	code := resp.StatusCode
	resp.Body.Close()
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: status %d", code)
	}
	if decErr != nil {
		return decErr
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		var cur jobStatus
		decErr = json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if decErr != nil {
			return decErr
		}
		switch cur.State {
		case JobDone:
			if cur.Verified != nil && !*cur.Verified {
				return fmt.Errorf("job %s completed unverified", st.ID)
			}
			return nil
		case JobFailed:
			return fmt.Errorf("job %s failed: %s", st.ID, cur.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after 60s", st.ID, cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRingSize polls until every listed node's ring settles on want nodes.
func waitRingSize(t *testing.T, nodes []*testNode, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		ok := true
		for _, n := range nodes {
			if len(n.svc.Cluster().Nodes()) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("node %s sees ring %v", n.id, n.svc.Cluster().Nodes())
			}
			t.Fatalf("rings did not converge on %d nodes", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRepairSweepHealsEmptyReplica: a node that computed everything
// standalone joins a ring with an empty peer; one anti-entropy sweep must
// stream every replica-owned object over (profiles included), a second
// sweep must find nothing left to move, and the healed peer must then
// serve the same batch without recomputing any analysis.
func TestRepairSweepHealsEmptyReplica(t *testing.T) {
	a := bootNode(t, "a")
	b := bootNode(t, "b")
	defer a.close()
	defer b.close()

	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  8,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Batch: 32},
		},
		MaxSteps: 2,
	}
	// Standalone compute: no cluster attached, so nothing replicates.
	if err := submitBatch(a.srv, req); err != nil {
		t.Fatal(err)
	}
	a.svc.WaitReplication()

	urls := map[string]string{"a": a.srv.URL, "b": b.srv.URL}
	opt := cluster.Options{ReplicaSets: 2, FailureThreshold: 1, Probation: time.Hour, Timeout: 30 * time.Second}
	attachNode(a, urls, opt)
	attachNode(b, urls, opt)

	moved := a.svc.RepairNow()
	if moved == 0 {
		t.Fatal("the first sweep against an empty replica must stream objects")
	}
	if got := a.svc.Counters.Get("repair.objects_streamed"); got != int64(moved) {
		t.Fatalf("repair.objects_streamed=%d, sweep reported %d", got, moved)
	}
	if errs := a.svc.Counters.Get("repair.stream_errors") + a.svc.Counters.Get("repair.probe_errors"); errs != 0 {
		t.Fatalf("healthy-peer sweep reported %d errors", errs)
	}
	if again := a.svc.RepairNow(); again != 0 {
		t.Fatalf("second sweep moved %d objects; the first should have converged", again)
	}
	if b.store.Stats().Objects == 0 {
		t.Fatal("repair streamed objects but none landed in the replica's store")
	}

	// The healed replica serves the batch with zero local analysis: results
	// and profiles come off its own disk, where the push handler stored
	// them.
	before := b.svc.Counters.Get("analysis.computed")
	if err := submitBatch(b.srv, req); err != nil {
		t.Fatal(err)
	}
	if delta := b.svc.Counters.Get("analysis.computed") - before; delta != 0 {
		t.Fatalf("healed replica recomputed %d analysis stages", delta)
	}
}

// TestReplicaReadSparseWireInterop is the read side of the one encoding a
// compact result has, on disk and on the wire: node a reopens a store an
// earlier run filled, node b is fresh. Every result is one record whose
// range set is the v2 frame; a must hand its stored records out untouched
// through lookup-batch, b must decode them into byte-identical libraries
// without analysing anything, and a itself must restore warm from the same
// objects — a stored result costs a decode, never a recompute and never a
// wrong image.
func TestReplicaReadSparseWireInterop(t *testing.T) {
	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  8,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
		},
		MaxSteps: 2,
	}

	// An earlier run fills the store.
	dir := t.TempDir()
	st, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := NewService(Config{Workers: 4, MaxSteps: 2, Store: st})
	firstSrv := httptest.NewServer(NewHandler(first))
	stFirst := postJob(t, firstSrv, req)
	if done := pollDone(t, firstSrv, stFirst.ID); done.State != JobDone {
		t.Fatalf("first run failed: %s", done.Error)
	}
	want := first.Job(stFirst.ID).Result.DebloatedLibs()
	keys := first.Job(stFirst.ID).Result.libKeys
	libs := first.Job(stFirst.ID).Result.Libs
	firstSrv.Close()
	first.Close()

	// Every compact result is one record, sealed with its key;
	// DecodeRecord takes no range set but the v2 frame.
	for i, key := range keys {
		raw, ok := st.Get(kindRecord, key)
		if !ok {
			t.Fatalf("the first run persisted no record for %s", libs[i].Name)
		}
		if _, err := memoStageOf(negativa.StageCompact).open(key, libs[i].Sparse.Lib(), raw); err != nil {
			t.Fatalf("record of %s: %v", libs[i].Name, err)
		}
	}
	stored, _ := st.Get(kindRecord, keys[0])
	st.Close()
	if st, err = castore.Open(dir, castore.Options{}); err != nil {
		t.Fatal(err)
	}

	svcA := NewService(Config{Workers: 4, MaxSteps: 2, Store: st})
	a := &testNode{id: "a", svc: svcA, srv: httptest.NewServer(NewHandler(svcA)), store: st}
	b := bootNode(t, "b")
	defer a.close()
	defer b.close()
	urls := map[string]string{"a": a.srv.URL, "b": b.srv.URL}
	opt := cluster.Options{ReplicaSets: 2, FailureThreshold: 1, Probation: time.Hour, Timeout: 30 * time.Second}
	attachNode(a, urls, opt)
	attachNode(b, urls, opt)

	// The disk tier answers a peer with the stored bytes as they are.
	probe := peerBatchLookupRequest{Keys: []peerLookupRequest{{Stage: negativa.StageCompact, Hash: keys[0]}}}
	if code, entries := postLookup(t, a.srv, probe); code != http.StatusOK || len(entries) != 1 || entries[0].name != kindRecord+"/"+keys[0] {
		t.Fatalf("lookup-batch against the reopened store: status %d, %d entries", code, len(entries))
	} else if !bytes.Equal(entries[0].rec, stored) {
		t.Fatal("lookup-batch re-encoded the stored record instead of handing it out untouched")
	}

	// b first (a's memory tier is still cold, so every value b reads comes
	// off a's disk objects), then a itself from its own disk.
	for _, n := range []*testNode{b, a} {
		stN := postJob(t, n.srv, req)
		if done := pollDone(t, n.srv, stN.ID); done.State != JobDone || done.Verified == nil || !*done.Verified {
			t.Fatalf("node %s job: state %s verified %v: %s", n.id, done.State, done.Verified, done.Error)
		}
		if got := n.svc.Counters.Get("analysis.computed"); got != 0 {
			t.Fatalf("node %s recomputed %d analysis stages over a reopened store", n.id, got)
		}
		for name, img := range want {
			if got := fetchPeerJobLib(t, n.srv, stN.ID, name); !bytes.Equal(got, img) {
				t.Fatalf("library %s served by node %s differs from the run that filled the store", name, n.id)
			}
		}
	}
	if b.svc.Counters.Get("peer.hits") == 0 {
		t.Fatal("node b read nothing through node a")
	}
}

// TestClusterRollingRestartE2E is the replication plane's acceptance test:
// three nodes under continuous batch traffic survive a rolling restart in
// which every original node is killed and replaced by a fresh, empty node
// under a new identity. Zero batches may fail, anti-entropy must stream
// the replacements' replica sets over, and the warm cluster must keep
// absorbing analysis (bounded analysis.computed growth) throughout.
func TestClusterRollingRestartE2E(t *testing.T) {
	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  8,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Batch: 32},
		},
		MaxSteps: 2,
	}
	opt := cluster.Options{
		ReplicaSets:       2,
		FailureThreshold:  2,
		Probation:         200 * time.Millisecond,
		HeartbeatInterval: 100 * time.Millisecond,
		Timeout:           10 * time.Second,
	}

	// topo guards the live set: the submitter holds it shared for a whole
	// batch, so a node is only ever killed between batches — but the ring
	// stays degraded (and traffic keeps flowing) for the entire window
	// between a kill and its replacement's repair convergence.
	var topo sync.RWMutex
	var live []*testNode
	var retired []*testNode

	urls := map[string]string{}
	for _, id := range []string{"a", "b", "c"} {
		n := bootNode(t, id)
		live = append(live, n)
		urls[id] = n.srv.URL
	}
	for _, n := range live {
		attachNode(n, urls, opt)
	}
	defer func() {
		topo.Lock()
		defer topo.Unlock()
		for _, n := range live {
			n.close()
		}
	}()

	// Warm-up: one batch computes and replicates everything.
	if err := submitBatch(live[0].srv, req); err != nil {
		t.Fatal(err)
	}
	for _, n := range live {
		n.svc.WaitReplication()
	}
	allNodes := func() []*testNode {
		topo.RLock()
		defer topo.RUnlock()
		return append(append([]*testNode{}, live...), retired...)
	}
	computedTotal := func() int64 {
		var sum int64
		for _, n := range allNodes() {
			sum += n.svc.Counters.Get("analysis.computed")
		}
		return sum
	}
	baseline := computedTotal()

	// Continuous traffic: round-robin batches over whatever is live.
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var batches atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			topo.RLock()
			n := live[i%len(live)]
			err := submitBatch(n.srv, req)
			topo.RUnlock()
			if err != nil {
				select {
				case errc <- fmt.Errorf("batch on %s: %w", n.id, err):
				default:
				}
				return
			}
			batches.Add(1)
		}
	}()

	victims := 3
	if testing.Short() {
		victims = 1
	}
	for k := 0; k < victims; k++ {
		// Kill the oldest node. Taking topo exclusively serializes the kill
		// with any in-flight batch; everything after runs under live load.
		topo.Lock()
		v := live[0]
		live = append([]*testNode{}, live[1:]...)
		topo.Unlock()
		v.close()
		topo.Lock()
		retired = append(retired, v)
		topo.Unlock()

		// The degraded ring still completes batches.
		topo.RLock()
		survivor := live[0]
		topo.RUnlock()
		if err := submitBatch(survivor.srv, req); err != nil {
			t.Fatalf("post-kill batch after losing %s: %v", v.id, err)
		}

		// Replacement: a brand-new identity with an empty store joins.
		peerURLs := map[string]string{}
		topo.RLock()
		for _, n := range live {
			peerURLs[n.id] = n.srv.URL
		}
		survivors := append([]*testNode{}, live...)
		topo.RUnlock()
		r := bootNode(t, v.id+"r")
		peerURLs[r.id] = r.srv.URL
		attachNode(r, peerURLs, opt)
		if acked := r.svc.Cluster().Join(); acked == 0 {
			t.Fatalf("replacement %s joined but no peer acknowledged", r.id)
		}
		waitRingSize(t, append(survivors, r), 3)

		// Anti-entropy: sweep the survivors until one full pass moves
		// nothing — the replacement then holds every replica it owns.
		deadline := time.Now().Add(30 * time.Second)
		for {
			moved := 0
			for _, n := range survivors {
				moved += n.svc.RepairNow()
			}
			if moved == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("anti-entropy did not converge after the replacement joined")
			}
		}
		if r.store.Stats().Objects == 0 {
			t.Fatalf("replacement %s converged with an empty store", r.id)
		}

		topo.Lock()
		live = append(live, r)
		topo.Unlock()
	}

	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("a batch failed during the rolling restart: %v", err)
	default:
	}
	if got := batches.Load(); got < int64(victims) {
		t.Fatalf("only %d background batches completed across %d restarts", got, victims)
	}

	var streamed int64
	for _, n := range allNodes() {
		streamed += n.svc.Counters.Get("repair.objects_streamed")
	}
	if streamed == 0 {
		t.Fatal("rolling restart must stream repair objects to the replacements")
	}
	// Bounded analysis growth: the replica tier absorbs the restarts. The
	// slack covers read-through races against a node mid-kill; wholesale
	// recomputation (libs × batches) would blow far past it.
	if delta := computedTotal() - baseline; delta > 2*baseline+4 {
		t.Fatalf("analysis.computed grew by %d during the rolling restart (baseline %d)", delta, baseline)
	}
}

// TestLocalDetectWritesBackToOwners: every detect stage computes on the
// requesting node and reaches every other live owner's store through
// write-back replication alone, with no repair sweep.
func TestLocalDetectWritesBackToOwners(t *testing.T) {
	nodes := startCluster(t, "a", "b", "c")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	a := nodes["a"]
	specs := []WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
		{Model: "Transformer", Batch: 32, Device: "A100"},
		{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
	}

	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 3})
	if err != nil {
		t.Fatal(err)
	}
	workloads := make([]mlruntime.Workload, len(specs))
	for i, spec := range specs {
		if workloads[i], err = spec.Workload(in); err != nil {
			t.Fatal(err)
		}
	}
	res, err := a.svc.DebloatBatch(in, workloads, BatchOptions{SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	a.svc.WaitReplication()
	for _, wo := range res.Workloads {
		key := negativa.DetectKey(res.InstallFP, wo.Identity)
		for _, owner := range a.svc.Cluster().Owners(key.String()) {
			if !nodes[owner].svc.stages.localProbe(key) {
				t.Fatalf("owner %s lacks the profile of %s after write-back", owner, wo.Name)
			}
		}
	}
	for id, n := range nodes {
		if n.svc.Counters.Get("repair.rounds") != 0 {
			t.Fatalf("node %s ran a repair sweep; the test must pass on write-back alone", id)
		}
	}
	if errs := a.svc.Counters.Get("peer.replica_write_errors"); errs != 0 {
		t.Fatalf("write-back reported %d errors on a healthy ring", errs)
	}
}

// TestWriteBackOneRequestPerOwnerPerBatch: two concurrent batches on one
// node of a three-node ring send their write-back as one objects request
// per remote owner per batch, with no stat probe. Once replication drains,
// every owner holds every object it owns, and peer.replica_writes counts
// each object once per remote owner. The batches overlap in one member,
// so they share its detect key; only the requesting node computes, and
// the prefetch never asks a peer for a key it holds, so every object in
// its store is one it wrote back.
func TestWriteBackOneRequestPerOwnerPerBatch(t *testing.T) {
	var objectCalls, statCalls sync.Map // node ID → *atomic.Int64
	count := func(m *sync.Map, id string) *atomic.Int64 {
		n, _ := m.LoadOrStore(id, new(atomic.Int64))
		return n.(*atomic.Int64)
	}
	nodes := startClusterCfg(t, nil, func(id string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/peer/objects":
				count(&objectCalls, id).Add(1)
			case "/v1/peer/stat":
				count(&statCalls, id).Add(1)
			}
			h.ServeHTTP(w, r)
		})
	}, "a", "b", "c")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	a := nodes["a"]
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 3})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]WorkloadSpec{
		{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 32, Device: "A100"}},
		{{Model: "Transformer", Batch: 32, Device: "A100"}, {Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1}},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(batches))
	for i, specs := range batches {
		workloads := make([]mlruntime.Workload, len(specs))
		for j, spec := range specs {
			if workloads[j], err = spec.Workload(in); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = a.svc.DebloatBatch(in, workloads, BatchOptions{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a.svc.WaitReplication()

	c := a.svc.Cluster()
	objects, want := 0, int64(0)
	a.svc.forEachOwnedGroup(func(ringKey string, ref storeRef) {
		objects++
		for _, owner := range without(c.Owners(ringKey), "a") {
			want++
			if !nodes[owner].store.Has(ref.Kind, ref.Key) {
				t.Errorf("owner %s lacks %s/%s after write-back", owner, ref.Kind, ref.Key)
			}
		}
	})
	if objects == 0 {
		t.Fatal("the batches stored nothing")
	}
	if hits := a.svc.Counters.Get("peer.hits"); hits != 0 {
		t.Fatalf("the requester read %d values from peers; every object must be its own", hits)
	}
	if got := a.svc.Counters.Get("peer.replica_writes"); got != want {
		t.Fatalf("peer.replica_writes = %d, want %d (%d objects, each once per remote owner)", got, want, objects)
	}
	if errs := a.svc.Counters.Get("peer.replica_write_errors") + a.svc.Counters.Get("writebehind.errors"); errs != 0 {
		t.Fatalf("write-back reported %d errors on a healthy ring", errs)
	}
	for _, id := range []string{"b", "c"} {
		if n := count(&objectCalls, id).Load(); n < 1 || n > int64(len(batches)) {
			t.Errorf("node %s took %d objects requests, want 1..%d (at most one per batch)", id, n, len(batches))
		}
		if n := count(&statCalls, id).Load(); n != 0 {
			t.Errorf("node %s took %d stat probes; write-back sends without asking", id, n)
		}
	}
	if n := count(&objectCalls, "a").Load(); n != 0 {
		t.Errorf("the requester took %d objects requests", n)
	}
}
