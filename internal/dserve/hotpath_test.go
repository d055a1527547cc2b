package dserve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/metrics"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// testDetectProfile runs one real detection so peer-lookup fixtures can
// serve a well-formed profile (RunResult and all).
func testDetectProfile(t *testing.T) *negativa.Profile {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := (WorkloadSpec{Model: "MobileNetV2", Batch: 1}).Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := negativa.DetectUsage(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// lookupFixture serves the per-key and batch peer-lookup routes from one
// canned profile, counting how many times each detect hash was answered
// (across both routes) — the denominator of the singleflight assertions.
type lookupFixture struct {
	profile *negativa.Profile
	mu      sync.Mutex
	serves  map[string]int
	delay   time.Duration
}

func (f *lookupFixture) serve(hash string) {
	f.mu.Lock()
	if f.serves == nil {
		f.serves = map[string]int{}
	}
	f.serves[hash]++
	f.mu.Unlock()
}

func (f *lookupFixture) count(hash string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.serves[hash]
}

func (f *lookupFixture) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/peer/lookup", func(w http.ResponseWriter, r *http.Request) {
		var req peerLookupRequest
		json.NewDecoder(r.Body).Decode(&req)
		if f.delay > 0 {
			select {
			case <-time.After(f.delay):
			case <-r.Context().Done():
				return
			}
		}
		f.serve(req.Hash)
		json.NewEncoder(w).Encode(peerLookupResponse{Found: true, Profile: f.profile})
	})
	mux.HandleFunc("POST /v1/peer/lookup-batch", func(w http.ResponseWriter, r *http.Request) {
		var req peerBatchLookupRequest
		json.NewDecoder(r.Body).Decode(&req)
		resp := peerBatchLookupResponse{Results: make([]peerLookupResponse, len(req.Keys))}
		for i, k := range req.Keys {
			f.serve(k.Hash)
			resp.Results[i] = peerLookupResponse{Found: true, Profile: f.profile}
		}
		json.NewEncoder(w).Encode(resp)
	})
	return mux
}

// TestHedgedLookupSlowReplica injects a ~100 ms transport delay into one
// replica: the hedge fires after its 5 ms floor, the healthy replica
// answers well under the injected delay, and the stalled request is
// cancelled rather than awaited.
func TestHedgedLookupSlowReplica(t *testing.T) {
	profile := testDetectProfile(t)

	var slowCancelled atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server watches the connection and r.Context()
		// observes the requester cancelling the stalled read.
		io.Copy(io.Discard, r.Body)
		select {
		case <-time.After(100 * time.Millisecond):
			json.NewEncoder(w).Encode(peerLookupResponse{Found: true, Profile: profile})
		case <-r.Context().Done():
			slowCancelled.Store(true)
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(peerLookupResponse{Found: true, Profile: profile})
	}))
	defer fast.Close()

	counters := metrics.NewCounterSet()
	m := NewStageMemo(NewRegistry(), NewResultCache(1<<20, nil), counters)
	c := cluster.New("self", map[string]string{"slow": slow.URL, "fast": fast.URL}, cluster.Options{
		ReplicaSets: 2, HedgeDelay: 5 * time.Millisecond,
		Counters: counters, Timeout: 30 * time.Second,
	})
	defer c.Close()
	m.AttachCluster(c)

	start := time.Now()
	lr, peer, ok := m.hedgedLookup(nil, []string{"slow", "fast"}, peerLookupRequest{Stage: negativa.StageDetect, Hash: "fp\x00w"})
	wall := time.Since(start)
	if !ok || peer != "fast" || lr == nil || lr.Profile == nil {
		t.Fatalf("hedged lookup = %v from %q, ok=%v", lr, peer, ok)
	}
	if wall > 80*time.Millisecond {
		t.Fatalf("hedged read took %v; it should complete well under the 100ms injected delay", wall)
	}
	if got := counters.Get("peer.hedge_fired"); got != 1 {
		t.Fatalf("hedge_fired = %d, want 1", got)
	}
	if got := counters.Get("peer.hedge_won"); got != 1 {
		t.Fatalf("hedge_won = %d, want 1", got)
	}
	if got := counters.Get("peer.hedge_cancelled"); got != 1 {
		t.Fatalf("hedge_cancelled = %d, want 1", got)
	}
	if got := counters.Get("peer.round_trips"); got != 2 {
		t.Fatalf("round_trips = %d, want 2 (primary + hedge)", got)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !slowCancelled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the losing replica's request was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchSingleflightNoDuplicateRoundTrips races a batch prefetch
// against concurrent on-demand reads of the same key (run under -race):
// the flight table must collapse them to exactly one remote round trip
// per key, whichever path gets there first.
func TestPrefetchSingleflightNoDuplicateRoundTrips(t *testing.T) {
	fixture := &lookupFixture{profile: testDetectProfile(t)}
	srv := httptest.NewServer(fixture.handler())
	defer srv.Close()

	counters := metrics.NewCounterSet()
	m := NewStageMemo(NewRegistry(), NewResultCache(1<<20, nil), counters)
	c := cluster.New("self", map[string]string{"peer": srv.URL}, cluster.Options{
		ReplicaSets: 2, Counters: counters, Timeout: 30 * time.Second,
	})
	defer c.Close()
	m.AttachCluster(c)

	for round := 0; round < 8; round++ {
		key := negativa.DetectKey("fp", string(rune('a'+round)))
		var wg sync.WaitGroup
		wg.Add(5)
		go func() {
			defer wg.Done()
			m.PrefetchLookups([]prefetchItem{{key: key}})
		}()
		for g := 0; g < 4; g++ {
			go func() {
				defer wg.Done()
				v, _, err := m.GetOrComputeSourced(key, nil, func() (any, error) {
					t.Error("compute ran: the peer-served key should never compute locally")
					return fixture.profile, nil
				})
				if err != nil || v.(*negativa.Profile) == nil {
					t.Errorf("read failed: %v", err)
				}
			}()
		}
		wg.Wait()
		if got := fixture.count(key.Hash); got != 1 {
			t.Fatalf("key %q served %d times by the peer; singleflight should collapse to 1", key.Hash, got)
		}
	}
}

// startClusterCfg is startCluster with a per-node service config hook —
// the mixed-version tests dial individual nodes' capabilities down.
func startClusterCfg(t *testing.T, tweak func(id string, cfg *Config), ids ...string) map[string]*testNode {
	t.Helper()
	nodes := map[string]*testNode{}
	urls := map[string]string{}
	for _, id := range ids {
		st, err := castore.Open(t.TempDir(), castore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 4, MaxSteps: 2, Store: st}
		if tweak != nil {
			tweak(id, &cfg)
		}
		svc := NewService(cfg)
		srv := httptest.NewServer(NewHandler(svc))
		nodes[id] = &testNode{id: id, svc: svc, srv: srv, store: st}
		urls[id] = srv.URL
	}
	for _, n := range nodes {
		c := cluster.New(n.id, urls, cluster.Options{
			Counters:         n.svc.Counters,
			Timings:          n.svc.Timings,
			FailureThreshold: 1,
			Probation:        time.Hour,
			Timeout:          30 * time.Second,
		})
		n.svc.AttachCluster(c)
	}
	return nodes
}

// TestMixedVersionInterop runs a ring where one node predates the
// lookup-batch route (DisablePeerBatch stands in for the old binary):
// requesters must degrade that node's keys to per-key lookups with zero
// failed batches — a version skew is not an error — and the batch still
// completes as pure reuse.
func TestMixedVersionInterop(t *testing.T) {
	nodes := startClusterCfg(t, func(id string, cfg *Config) {
		if id == "c" {
			cfg.DisablePeerBatch = true
		}
	}, "a", "b", "c")
	a, b, c := nodes["a"], nodes["b"], nodes["c"]
	defer a.close()
	defer b.close()
	defer c.close()

	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  12,
		Workloads: []WorkloadSpec{
			{Model: "Llama2", Batch: 8},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
			{Model: "Transformer", Batch: 32, Device: "A100"},
		},
		MaxSteps: 2,
	}

	// Node A computes the batch and writes it back to the owners (C's keys
	// are probed through per-key routes; A learns C is batch-incapable from
	// the first 404).
	stA := postJob(t, a.srv, req)
	if doneA := pollDone(t, a.srv, stA.ID); doneA.State != JobDone {
		t.Fatalf("node A job failed: %s", doneA.Error)
	}
	a.svc.WaitReplication()

	// The same batch on node B is pure reuse, batch-prefetched from A and
	// per-key from C.
	analysisBefore := b.svc.Counters.Get("analysis.computed")
	stB := postJob(t, b.srv, req)
	doneB := pollDone(t, b.srv, stB.ID)
	if doneB.State != JobDone {
		t.Fatalf("node B job failed: %s", doneB.Error)
	}
	if doneB.Verified == nil || !*doneB.Verified {
		t.Fatal("node B batch must verify")
	}
	if delta := b.svc.Counters.Get("analysis.computed") - analysisBefore; delta != 0 {
		t.Fatalf("node B ran locate/compact %d times locally despite warm peers", delta)
	}

	// Version skew must be degradation, not failure.
	for _, n := range []*testNode{a, b} {
		if got := n.svc.Counters.Get("peer.batch_failed"); got != 0 {
			t.Fatalf("node %s counted %d failed batches; a 404 peer is not a failure", n.id, got)
		}
	}
	if got := a.svc.Counters.Get("peer.batch_unsupported") + b.svc.Counters.Get("peer.batch_unsupported"); got == 0 {
		t.Fatal("no requester discovered the old node's missing batch route")
	}
	if got := c.svc.Counters.Get("peer.served_batches"); got != 0 {
		t.Fatalf("the old node served %d batches it does not support", got)
	}
	if got := c.svc.Counters.Get("peer.served_lookups"); got == 0 {
		t.Fatal("the old node should still serve per-key lookups")
	}
}

// TestPeerLookupBatchRoute covers the serving side of the batch route:
// index-aligned results, the key cap, and the DisablePeerBatch 404.
func TestPeerLookupBatchRoute(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	req := peerBatchLookupRequest{Keys: []peerLookupRequest{
		{Stage: negativa.StageCompact, Hash: "absent"},
		{Stage: negativa.StageDetect, Hash: "malformed-no-separator"},
	}}
	var resp peerBatchLookupResponse
	if code := postPeer(t, srv, "/v1/peer/lookup-batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch lookup status %d", code)
	}
	if len(resp.Results) != 2 || resp.Results[0].Found || resp.Results[1].Found {
		t.Fatalf("batch results %+v; misses and bad keys must come back found=false in place", resp.Results)
	}

	over := peerBatchLookupRequest{Keys: make([]peerLookupRequest, maxBatchLookupKeys+1)}
	for i := range over.Keys {
		over.Keys[i] = peerLookupRequest{Stage: negativa.StageCompact, Hash: "x"}
	}
	if code := postPeer(t, srv, "/v1/peer/lookup-batch", over, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", code)
	}

	old := NewService(Config{Workers: 2, MaxSteps: 2, DisablePeerBatch: true})
	defer old.Close()
	soloCluster(old)
	oldSrv := httptest.NewServer(NewHandler(old))
	defer oldSrv.Close()
	if code := postPeer(t, oldSrv, "/v1/peer/lookup-batch", req, nil); code != http.StatusNotFound {
		t.Fatalf("disabled batch route status %d, want 404", code)
	}
}
