package dserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/metrics"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
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

// lookupFixture serves the batch peer-lookup route from one canned profile,
// counting how many times each detect hash was answered — the denominator
// of the singleflight assertions.
type lookupFixture struct {
	profile *negativa.Profile
	mu      sync.Mutex
	serves  map[string]int
	// gate, when non-nil, is sent on twice per request: once on arrival and
	// once before answering, so a test can hold a read in flight.
	gate chan struct{}
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
	mux.HandleFunc("POST /v1/peer/lookup-batch", func(w http.ResponseWriter, r *http.Request) {
		var req peerBatchLookupRequest
		json.NewDecoder(r.Body).Decode(&req)
		if f.gate != nil {
			f.gate <- struct{}{}
			f.gate <- struct{}{}
		}
		w.Write(lookupAnswer(req.Keys, func(k peerLookupRequest) []byte {
			f.serve(k.Hash)
			rec, _ := memoStageOf(negativa.StageDetect).seal(k.Hash, f.profile)
			return rec
		}))
	})
	return mux
}

// lookupAnswer frames a lookup-batch answer as a peer does: one entry per
// key rec answers (a nil record is a miss), in request order.
func lookupAnswer(keys []peerLookupRequest, rec func(peerLookupRequest) []byte) []byte {
	var body []byte
	for _, k := range keys {
		if r := rec(k); r != nil {
			body = castore.AppendEntry(body, memoStageOf(k.Stage).kind, k.Hash, castore.NewFrame(r))
		}
	}
	return body
}

// TestHedgedLookupSlowReplica injects a ~100 ms transport delay into one
// replica of a batch lookup: the hedge fires after its fixed 2 ms, the
// healthy replica answers well under the injected delay and its values are
// planted, and the stalled request is cancelled rather than awaited. Three
// of the four keys have the stalled node as primary, so the answering node
// served them as a replica (peer.replica_reads); the fourth it owns first.
func TestHedgedLookupSlowReplica(t *testing.T) {
	profile := testDetectProfile(t)

	// Both replicas hold every key; one answers ~100 ms late. The answering
	// replica holds its answer until the stalled one has received its
	// request (bounded, so a request that never arrives fails the test
	// rather than hangs it): otherwise, on a loaded machine, the hedge can
	// win and cancel the stalled read before it reaches its server.
	answer := (&lookupFixture{profile: profile}).handler()
	var slowCancelled atomic.Bool
	entered := make(chan struct{})
	var enter sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enter.Do(func() { close(entered) })
		// Drain the body so the server watches the connection and r.Context()
		// observes the requester cancelling the stalled read.
		body, _ := io.ReadAll(r.Body)
		select {
		case <-time.After(100 * time.Millisecond):
			r.Body = io.NopCloser(bytes.NewReader(body))
			answer.ServeHTTP(w, r)
		case <-r.Context().Done():
			slowCancelled.Store(true)
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
		}
		answer.ServeHTTP(w, r)
	}))
	defer fast.Close()

	counters := metrics.NewCounterSet()
	m := NewStageMemo(NewResultCache(1<<20, nil), counters)
	// "primary" sorts before "replica" and both are healthy, so the stalled
	// node is the first read target of the group.
	c := cluster.New("self", map[string]string{"primary": slow.URL, "replica": fast.URL}, cluster.Options{
		ReplicaSets: 2, Counters: counters, Timeout: 30 * time.Second,
	})
	defer c.Close()
	m.AttachCluster(c)

	// Pick keys by ring placement: three owned [primary, replica], one
	// owned [replica, primary] — one replica set, so one batch.
	var items []prefetchItem
	stalledFirst, answeringFirst := 0, 0
	for i := 0; stalledFirst < 3 || answeringFirst < 1; i++ {
		if i == 10000 {
			t.Fatal("no detect keys with the wanted ring placement")
		}
		key := negativa.DetectKey("fp", fmt.Sprintf("w%d", i))
		switch owners := c.Owners(key.String()); {
		case slices.Equal(owners, []string{"primary", "replica"}) && stalledFirst < 3:
			stalledFirst++
		case slices.Equal(owners, []string{"replica", "primary"}) && answeringFirst < 1:
			answeringFirst++
		default:
			continue
		}
		items = append(items, prefetchItem{key: key})
	}

	start := time.Now()
	newBatchMemo(m).PrefetchLookups(nil, items)
	wall := time.Since(start)
	if wall > 80*time.Millisecond {
		t.Fatalf("hedged read took %v; it should complete well under the 100ms injected delay", wall)
	}
	for _, it := range items {
		if _, ok := m.profiles.get(it.key.Hash); !ok {
			t.Fatalf("key %q was not planted by the answering replica", it.key.Hash)
		}
	}
	for name, want := range map[string]int64{
		"peer.hedge_fired":     1,
		"peer.hedge_won":       1,
		"peer.hedge_cancelled": 1,
		"peer.round_trips":     2, // primary + hedge
		"peer.hits":            4,
		"peer.replica_reads":   3,
		"peer.fallbacks":       0,
		"peer.batch_failed":    0,
	} {
		if got := counters.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for !slowCancelled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the losing replica's request was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHedgingRescuesStalledOwner is the ring-level guard that keeps hedged
// reads. On a 3-node ring (R=2) whose node a ran the batch cold, node b
// runs it warm: everything b does not own itself it reads from a and c
// through lookup-batch. One request stalls for 300 ms: the first that b
// sent as the primary of a hedged read, told by the keys it carries —
// keys whose two owners are a and c, this node first in b's read order —
// not by the order requests arrive in, so neither a hedge nor an
// unhedged single-owner read is ever the one stalled. The stall must
// reach the batch and a hedge must win it: the batch finishes in under
// 150 ms, served without analysis and byte-identical to the cold run.
func TestHedgingRescuesStalledOwner(t *testing.T) {
	const stall = 300 * time.Millisecond
	in, ws := persistTestInstall(t)
	var armed, stalled atomic.Bool
	var requester atomic.Pointer[cluster.Cluster] // node b's ring view
	// primaryOf is the node b reads first among a key's two remote
	// owners, or "" when b owns the key or only one owner is remote.
	primaryOf := func(k peerLookupRequest) string {
		c := requester.Load()
		remotes := without(c.Owners(plan.Key{Stage: k.Stage, Hash: k.Hash}.String()), "b")
		if len(remotes) != 2 {
			return ""
		}
		// Every node is healthy here, so the read order is ID order.
		sort.Strings(remotes)
		return remotes[0]
	}
	stallPrimary := func(id string, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if armed.Load() && strings.HasSuffix(r.URL.Path, "/lookup-batch") {
				// Read the body first, so the server sees a hedge cancel
				// the stalled read.
				body, _ := io.ReadAll(r.Body)
				r.Body = io.NopCloser(bytes.NewReader(body))
				var req peerBatchLookupRequest
				if json.Unmarshal(body, &req) == nil && len(req.Keys) > 0 && primaryOf(req.Keys[0]) == id && stalled.CompareAndSwap(false, true) {
					select {
					case <-time.After(stall):
					case <-r.Context().Done():
						return
					}
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	nodes := map[string]*testNode{}
	urls := map[string]string{}
	for _, id := range []string{"a", "b", "c"} {
		st, err := castore.Open(t.TempDir(), castore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(Config{Workers: 4, MaxSteps: 2, Store: st})
		h := NewHandler(svc)
		if id != "b" {
			h = stallPrimary(id, h)
		}
		n := &testNode{id: id, svc: svc, srv: httptest.NewServer(h), store: st}
		defer n.close()
		nodes[id] = n
		urls[id] = n.srv.URL
	}
	for _, n := range nodes {
		attachNode(n, urls, cluster.Options{
			ReplicaSets: 2, FailureThreshold: 1, Probation: time.Hour, Timeout: 30 * time.Second,
		})
	}

	cold, err := nodes["a"].svc.DebloatBatch(in, ws, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.svc.WaitReplication()
	}
	b := nodes["b"]
	requester.Store(b.svc.Cluster())
	armed.Store(true)
	start := time.Now()
	warm, err := b.svc.DebloatBatch(in, ws, BatchOptions{})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("warm batch under a %v stall: %v", stall, wall)
	if !stalled.Load() {
		t.Fatal("node b's warm batch sent no hedged lookup-batch to a or c")
	}
	if n := b.svc.Counters.Get("peer.hedge_won"); n < 1 {
		t.Errorf("node b's peer.hedge_won = %d, want >= 1: no hedge rescued the stalled read", n)
	}
	if wall >= 150*time.Millisecond {
		t.Errorf("hedged warm batch took %v, want < 150ms", wall)
	}
	if n := b.svc.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("node b computed %d compact stages, want 0", n)
	}
	want := cold.DebloatedLibs()
	for name, img := range warm.DebloatedLibs() {
		if !bytes.Equal(img, want[name]) {
			t.Fatalf("library %s differs from the cold run", name)
		}
	}
	if len(warm.Libs) != len(want) {
		t.Fatalf("warm batch has %d libraries, cold %d", len(warm.Libs), len(want))
	}
}

// TestPrefetchSingleflightNoDuplicateRoundTrips pins the flight table
// spanning the batch prefetch and the stage nodes (run under -race): one key
// never has a remote read and a local compute in flight at once, whichever
// side asks first.
func TestPrefetchSingleflightNoDuplicateRoundTrips(t *testing.T) {
	profile := testDetectProfile(t)
	boot := func(t *testing.T, fixture *lookupFixture) *StageMemo {
		srv := httptest.NewServer(fixture.handler())
		t.Cleanup(srv.Close)
		counters := metrics.NewCounterSet()
		m := NewStageMemo(NewResultCache(1<<20, nil), counters)
		c := cluster.New("self", map[string]string{"peer": srv.URL}, cluster.Options{
			ReplicaSets: 2, Counters: counters, Timeout: 30 * time.Second,
		})
		t.Cleanup(c.Close)
		m.AttachCluster(c)
		return m
	}
	key := negativa.DetectKey("fp", "w")

	// Readers that arrive while the prefetch holds the flight wait for its
	// plant: no compute, one peer read.
	t.Run("prefetch first", func(t *testing.T) {
		fixture := &lookupFixture{profile: profile, gate: make(chan struct{})}
		m := boot(t, fixture)
		var wg sync.WaitGroup
		wg.Add(5)
		go func() {
			defer wg.Done()
			newBatchMemo(m).PrefetchLookups(nil, []prefetchItem{{key: key}})
		}()
		<-fixture.gate // the request is at the peer: the prefetch leads the flight
		for g := 0; g < 4; g++ {
			go func() {
				defer wg.Done()
				v, src, err := m.GetOrCompute(nil, key, nil, func() (any, error) {
					t.Error("compute ran while the prefetch held the key's flight")
					return profile, nil
				})
				if err != nil || v.(*negativa.Profile) == nil || !src.Hit() {
					t.Errorf("read = %v from %v, err %v", v, src, err)
				}
			}()
		}
		<-fixture.gate // let the peer answer
		wg.Wait()
		if got := fixture.count(key.Hash); got != 1 {
			t.Fatalf("key served %d times by the peer, want 1", got)
		}
	})

	// A prefetch that arrives while a stage node leads the flight skips the
	// key: one compute, no peer read.
	t.Run("stage node first", func(t *testing.T) {
		fixture := &lookupFixture{profile: profile}
		m := boot(t, fixture)
		computing, finish, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			_, src, err := m.GetOrCompute(nil, key, nil, func() (any, error) {
				close(computing)
				<-finish
				return profile, nil
			})
			if err != nil || src.Hit() {
				t.Errorf("leader read from %v, err %v; want a local compute", src, err)
			}
		}()
		<-computing
		newBatchMemo(m).PrefetchLookups(nil, []prefetchItem{{key: key}})
		close(finish)
		<-done
		if got := fixture.count(key.Hash); got != 0 {
			t.Fatalf("key served %d times by the peer while a stage node computed it", got)
		}
	})
}

// recordingExecutor records its Acquire and Release calls in order.
type recordingExecutor struct{ calls []string }

func (e *recordingExecutor) Acquire() { e.calls = append(e.calls, "acquire") }
func (e *recordingExecutor) Release() { e.calls = append(e.calls, "release") }

// TestPrefetchYieldsTheCallersSlot: the batch prefetch yields the executor
// its caller hands it — the one the calling node holds a slot of — around
// its round trips, and takes the slot back before returning.
func TestPrefetchYieldsTheCallersSlot(t *testing.T) {
	fixture := &lookupFixture{profile: testDetectProfile(t)}
	srv := httptest.NewServer(fixture.handler())
	defer srv.Close()
	m := NewStageMemo(NewResultCache(1<<20, nil), metrics.NewCounterSet())
	c := cluster.New("self", map[string]string{"peer": srv.URL}, cluster.Options{ReplicaSets: 2, Timeout: 30 * time.Second})
	defer c.Close()
	m.AttachCluster(c)

	key := negativa.DetectKey("fp", "w")
	var slot recordingExecutor
	newBatchMemo(m).PrefetchLookups(&slot, []prefetchItem{{key: key}})
	if got := strings.Join(slot.calls, ","); got != "release,acquire" {
		t.Fatalf("the caller's executor saw %q, want release,acquire", got)
	}
	if got := fixture.count(key.Hash); got != 1 {
		t.Fatalf("key served %d times by the peer, want 1", got)
	}
}

// startClusterCfg is startCluster with a per-node service config hook (the
// ingestion tests give every node an ingest root) and, when wrap is
// non-nil, a middleware around each node's handler.
func startClusterCfg(t *testing.T, tweak func(id string, cfg *Config), wrap func(id string, h http.Handler) http.Handler, ids ...string) map[string]*testNode {
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
		h := NewHandler(svc)
		if wrap != nil {
			h = wrap(id, h)
		}
		srv := httptest.NewServer(h)
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

// TestBatchLookupFailureComputesLocally: a ring runs one protocol, so a
// replica set that cannot answer lookup-batch — the route is absent, the
// peer errors, or its answer is cut short — is a
// failed peer tier, and a failed peer tier means local compute. The batch
// must complete byte-identical to a standalone DebloatBatch, and the
// requester must not fall back to any other read route.
func TestBatchLookupFailureComputesLocally(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 4})
	if err != nil {
		t.Fatal(err)
	}
	specs := []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 32}}
	workloads := make([]mlruntime.Workload, len(specs))
	for i, spec := range specs {
		if workloads[i], err = spec.Workload(in); err != nil {
			t.Fatal(err)
		}
	}
	opt := BatchOptions{MaxSteps: 2}
	oracle := NewService(Config{Workers: 4, MaxSteps: 2})
	defer oracle.Close()
	ref, err := oracle.DebloatBatch(in, workloads, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.DebloatedLibs()

	for name, answer := range map[string]func(w http.ResponseWriter){
		"404": func(w http.ResponseWriter) { http.Error(w, "no such route", http.StatusNotFound) },
		"500": func(w http.ResponseWriter) { http.Error(w, "boom", http.StatusInternalServerError) },
		"short results": func(w http.ResponseWriter) {
			w.Write(castore.AppendEntry(nil, kindProfile, strings.Repeat("ab", 32), castore.NewFrame([]byte("a profile")))[:40])
		},
	} {
		t.Run(name, func(t *testing.T) {
			// Both stub peers fail lookup-batch as configured and refuse
			// everything else, recording which routes were asked.
			var mu sync.Mutex
			routes := map[string]int{}
			stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				route, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/peer/"), "/")
				mu.Lock()
				routes[route]++
				mu.Unlock()
				if route == "lookup-batch" {
					answer(w)
					return
				}
				http.Error(w, "stub peer", http.StatusServiceUnavailable)
			})
			b, c := httptest.NewServer(stub), httptest.NewServer(stub)
			defer b.Close()
			defer c.Close()

			svc := NewService(Config{Workers: 4, MaxSteps: 2})
			defer svc.Close()
			svc.AttachCluster(cluster.New("a", map[string]string{"b": b.URL, "c": c.URL}, cluster.Options{
				ReplicaSets: 2, Counters: svc.Counters, Timeout: 30 * time.Second,
			}))
			res, err := svc.DebloatBatch(in, workloads, opt)
			if err != nil {
				t.Fatalf("batch failed on a ring whose peers cannot answer lookup-batch: %v", err)
			}
			svc.WaitReplication()
			if !res.AllVerified() {
				t.Fatal("locally computed batch must verify")
			}
			for lib, got := range res.DebloatedLibs() {
				if !bytes.Equal(got, want[lib]) {
					t.Fatalf("library %s differs from the standalone pipeline's", lib)
				}
			}
			if got := svc.Counters.Get("peer.batch_failed"); got == 0 {
				t.Fatal("peer.batch_failed = 0; the failed batches went uncounted")
			}
			if got, keys := svc.Counters.Get("analysis.computed"), int64(len(res.libKeys)); got == 0 || got > keys {
				t.Fatalf("analysis.computed = %d for %d compact keys", got, keys)
			}
			mu.Lock()
			defer mu.Unlock()
			if routes["lookup-batch"] == 0 {
				t.Fatal("the stubs never saw a lookup-batch")
			}
			for route := range routes {
				switch route {
				case "lookup-batch", "objects", "stat":
				default:
					t.Errorf("requester fell back to /v1/peer/%s (%d requests)", route, routes[route])
				}
			}
		})
	}
}

// TestPeerLookupBatchRoute covers the serving side of the batch route:
// a held key between a miss and an unparsable key answers as the one
// entry, named for its key, and the key cap.
func TestPeerLookupBatchRoute(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	svc.stages.profiles.put(negativa.DetectKey("fp", "w").Hash, testDetectProfile(t))

	req := peerBatchLookupRequest{Keys: []peerLookupRequest{
		{Stage: negativa.StageCompact, Hash: "absent"},
		{Stage: negativa.StageDetect, Hash: negativa.DetectKey("fp", "w").Hash},
		{Stage: negativa.StageDetect, Hash: "malformed-no-separator"},
	}}
	code, entries := postLookup(t, srv, req)
	if code != http.StatusOK {
		t.Fatalf("batch lookup status %d", code)
	}
	if want := kindProfile + "/" + req.Keys[1].Hash; len(entries) != 1 || entries[0].name != want {
		t.Fatalf("answer of %d entries; want the held key's alone, %s", len(entries), want)
	}
	if _, err := memoStageOf(negativa.StageDetect).open(req.Keys[1].Hash, nil, entries[0].rec); err != nil {
		t.Fatalf("the held key's record does not open under it: %v", err)
	}

	over := peerBatchLookupRequest{Keys: make([]peerLookupRequest, maxBatchLookupKeys+1)}
	for i := range over.Keys {
		over.Keys[i] = peerLookupRequest{Stage: negativa.StageCompact, Hash: "x"}
	}
	if code := postPeer(t, srv, "/v1/peer/lookup-batch", over, nil); code != http.StatusBadRequest {
		t.Fatalf("oversized batch status %d, want 400", code)
	}
}

// TestShortLookupAnswerTriesNextReplica: a lookup-batch answer cut short
// is a failed attempt like a transport error, not an answer that wins the
// race: the requester counts a fallback and tries the set's next replica,
// whose answer plants every key.
func TestShortLookupAnswerTriesNextReplica(t *testing.T) {
	answer := (&lookupFixture{profile: testDetectProfile(t)}).handler()
	var answeredShort atomic.Bool
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if answeredShort.CompareAndSwap(false, true) {
			whole := httptest.NewRecorder()
			answer.ServeHTTP(whole, r)
			w.Write(whole.Body.Bytes()[:whole.Body.Len()-7])
			return
		}
		answer.ServeHTTP(w, r)
	})
	a, b := httptest.NewServer(stub), httptest.NewServer(stub)
	defer a.Close()
	defer b.Close()

	counters := metrics.NewCounterSet()
	m := NewStageMemo(NewResultCache(1<<20, nil), counters)
	// Every key is owned by all three nodes, so both stubs are its remote
	// replicas, and whichever is asked first answers short. The counts are
	// the same whether or not a hedge fires: two round trips, one of them
	// short.
	c := cluster.New("self", map[string]string{"a": a.URL, "b": b.URL}, cluster.Options{
		ReplicaSets: 3, Counters: counters, Timeout: 30 * time.Second,
	})
	defer c.Close()
	m.AttachCluster(c)

	var items []prefetchItem
	for i := 0; i < 4; i++ {
		items = append(items, prefetchItem{key: negativa.DetectKey("fp", fmt.Sprintf("w%d", i))})
	}
	newBatchMemo(m).PrefetchLookups(nil, items)
	t.Logf("hedges fired: %d", counters.Get("peer.hedge_fired"))
	for _, it := range items {
		if _, ok := m.profiles.get(it.key.Hash); !ok {
			t.Fatalf("key %q was not planted from the second replica", it.key.Hash)
		}
	}
	for name, want := range map[string]int64{
		"peer.round_trips":  2,
		"peer.fallbacks":    1,
		"peer.hits":         4,
		"peer.batch_failed": 0,
	} {
		if got := counters.Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestLookAheadAnswersOutliveEviction: what a batch's look-ahead finds is
// the batch's own, not a memory-tier entry the next plant can evict. A
// peer-warm batch on a node whose result cache holds nothing (CacheBytes
// 1) and which has no disk tier computes nothing: every stage reads as a
// peer hit, and the verify probe, answered by the prefetch, asks for no
// clone.
func TestLookAheadAnswersOutliveEviction(t *testing.T) {
	nodes := startClusterCfg(t, func(id string, cfg *Config) {
		if id == "c" {
			cfg.CacheBytes, cfg.Store = 1, nil
		}
	}, nil, "a", "b", "c")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	req := JobRequest{
		Framework: "pytorch", TailLibs: 6, MaxSteps: 2,
		Workloads: []WorkloadSpec{{Model: "MobileNetV2", Batch: 1}, {Model: "Transformer", Batch: 32}},
	}
	run := func(n *testNode) *BatchResult {
		t.Helper()
		job, err := n.svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := waitJob(n.svc, job.ID, waitTimeout)
		if j.State != JobDone || !j.Result.AllVerified() {
			t.Fatalf("node %s: the batch did not complete verified (%s: %s)", n.id, j.State, j.Err)
		}
		n.svc.WaitReplication()
		return j.Result
	}
	run(nodes["a"])

	c := nodes["c"]
	res := run(c)
	members, libs := int64(len(req.Workloads)), int64(len(res.Libs))
	for name, want := range map[string]int64{
		"analysis.computed":         0,
		"stage.detect.peer_hits":    members,
		"stage.compact.peer_hits":   libs,
		"stage.verifyrun.peer_hits": members,
		"stage.verifyrun.misses":    0,
		"verify.clones":             0,
	} {
		if got := c.svc.Counters.Get(name); got != want {
			t.Errorf("node c: %s = %d, want %d", name, got, want)
		}
	}
}

// TestLookAheadAnswerStaysWithItsBatch: the value a batch's prefetch found
// is credited to that batch. Other batches reading the same key first take
// it from the shared memory tier the prefetch planted, as memory; the batch
// that asked still reads it as a peer read, once, and its second node of
// the same key reads the shared tier.
func TestLookAheadAnswerStaysWithItsBatch(t *testing.T) {
	fixture := &lookupFixture{profile: testDetectProfile(t)}
	srv := httptest.NewServer(fixture.handler())
	defer srv.Close()
	m := NewStageMemo(NewResultCache(1<<20, nil), metrics.NewCounterSet())
	c := cluster.New("self", map[string]string{"peer": srv.URL}, cluster.Options{ReplicaSets: 2, Timeout: 30 * time.Second})
	defer c.Close()
	m.AttachCluster(c)

	key := negativa.DetectKey("fp", "w")
	batch := newBatchMemo(m)
	batch.PrefetchLookups(nil, []prefetchItem{{key: key}})
	read := func(memo plan.Memo, want plan.Source) {
		v, src, err := memo.GetOrCompute(nil, key, nil, func() (any, error) {
			t.Error("a prefetched key computed")
			return fixture.profile, nil
		})
		if err != nil || v.(*negativa.Profile) == nil || src != want {
			t.Errorf("read from %v, err %v; want %v", src, err, want)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read(m, plan.SourceMemory)
		}()
	}
	wg.Wait()
	read(batch, plan.SourcePeer)
	read(batch, plan.SourceMemory)
	if got := fixture.count(key.Hash); got != 1 {
		t.Fatalf("key served %d times by the peer, want 1", got)
	}
}
