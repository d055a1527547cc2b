package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/metrics"
)

func TestParsePeers(t *testing.T) {
	m, err := ParsePeers("a=http://h1:8080, b=http://h2:8080 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["a"] != "http://h1:8080" || m["b"] != "http://h2:8080" {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"", "justanode", "a=", "=url", "a=u,a=v"} {
		if _, err := ParsePeers(bad); err == nil {
			t.Fatalf("ParsePeers(%q) should fail", bad)
		}
	}
}

func TestNewDropsSelfEntry(t *testing.T) {
	c := New("b", map[string]string{"a": "http://h1", "b": "http://h2", "c": "http://h3"}, Options{})
	nodes := c.Nodes()
	if len(nodes) != 3 || !slices.Contains(nodes, "b") {
		t.Fatalf("ring nodes = %v", nodes)
	}
	if len(c.Stats().Peers) != 2 {
		t.Fatalf("self must not be its own peer: %+v", c.Stats().Peers)
	}
}

func TestOwnerSelfVsRemote(t *testing.T) {
	c := New("a", map[string]string{"b": "http://h2"}, Options{})
	sawSelf, sawRemote := false, false
	for i := 0; i < 200 && !(sawSelf && sawRemote); i++ {
		switch owner := c.Owners(string(rune('a'+i%26)) + "key" + string(rune('0'+i%10)))[0]; owner {
		case "a":
			sawSelf = true
		case "b":
			sawRemote = true
		default:
			t.Fatalf("owner %q", owner)
		}
	}
	if !sawSelf || !sawRemote {
		t.Fatal("2-node ring should split ownership")
	}
}

// TestPeerFailureShrinksRingAndProbationReadmits drives the full
// degradation cycle: transport failures mark the peer down (ring shrinks
// to self), probation expiry alone does NOT readmit it — only a
// successful background probe of PingPath does, once the peer is actually
// back.
func TestPeerFailureShrinksRingAndProbationReadmits(t *testing.T) {
	// Reserve a port, then close the listener: the peer address is real
	// but dead, and can be revived later on the same address.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	counters := metrics.NewCounterSet()
	c := New("a", map[string]string{"b": "http://" + addr}, Options{
		FailureThreshold: 2,
		Probation:        30 * time.Millisecond,
		Timeout:          500 * time.Millisecond,
		Counters:         counters,
	})
	defer c.Close()
	for i := 0; i < 2; i++ {
		if err := c.PostJSON("b", "/x", map[string]int{}, nil); err == nil {
			t.Fatal("expected transport error")
		}
	}
	if nodes := c.Nodes(); len(nodes) != 1 || nodes[0] != "a" {
		t.Fatalf("ring should have shrunk to self, got %v", nodes)
	}
	st := c.Stats()
	if !st.Peers[0].Down || st.Peers[0].TransportErrors != 2 {
		t.Fatalf("peer status %+v", st.Peers[0])
	}
	if counters.Get("peer.marked_down") != 1 {
		t.Fatalf("marked_down = %d", counters.Get("peer.marked_down"))
	}
	// While the peer is still dead, probation expiry plus lookups must
	// never readmit it: lookups only kick background probes, and those
	// probes keep failing.
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		if owner := c.Owners("anything")[0]; owner != "a" {
			t.Fatalf("dead peer readmitted to ring: owner %s", owner)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := counters.Get("peer.readmitted"); got != 0 {
		t.Fatalf("readmitted a dead peer %d times", got)
	}
	if counters.Get("peer.probes") == 0 {
		t.Fatal("no background probes were attempted")
	}

	// Revive the peer on the same address, answering the ping route; the
	// next probe succeeds and readmits it.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PingPath, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(HeartbeatResponse{})
	})
	go http.Serve(ln2, mux)

	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		c.Owners("poke") // kicks a background probe once probation expires
		if len(c.Nodes()) == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if nodes := c.Nodes(); len(nodes) != 2 {
		t.Fatalf("revived peer not readmitted: %v", nodes)
	}
	if counters.Get("peer.readmitted") != 1 {
		t.Fatalf("readmitted = %d", counters.Get("peer.readmitted"))
	}
}

// TestFlappingPeerCannotThrashRing is the regression for the old
// lookup-time readmission: with a dead peer and tiny probation, hammering
// ownership lookups must never put the peer back on the ring, no matter
// how many probation windows expire.
func TestFlappingPeerCannotThrashRing(t *testing.T) {
	counters := metrics.NewCounterSet()
	c := New("a", map[string]string{"b": "http://127.0.0.1:1"}, Options{
		FailureThreshold: 1,
		Probation:        2 * time.Millisecond,
		Timeout:          200 * time.Millisecond,
		Counters:         counters,
	})
	defer c.Close()
	if err := c.PostJSON("b", "/x", map[string]int{}, nil); err == nil {
		t.Fatal("expected transport error")
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		if owners := c.Owners(fmt.Sprintf("key-%d", i)); len(owners) != 1 || owners[0] != "a" {
			t.Fatalf("flapping peer thrashed back onto the ring: %v", owners)
		}
	}
	if got := counters.Get("peer.readmitted"); got != 0 {
		t.Fatalf("dead peer readmitted %d times", got)
	}
	if counters.Get("peer.probes") == 0 {
		t.Fatal("lookups should have kicked background probes")
	}
}

// TestPostJSONAppErrorDoesNotCountAgainstHealth: a peer answering 4xx is
// alive — it must stay on the ring.
func TestPostJSONAppErrorDoesNotCountAgainstHealth(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(map[string]string{"error": "nope"})
	}))
	defer srv.Close()
	c := New("a", map[string]string{"b": srv.URL}, Options{FailureThreshold: 1})
	err := c.PostJSON("b", "/x", map[string]int{}, nil)
	perr, ok := err.(*PeerError)
	if !ok || perr.Status != http.StatusConflict || perr.Msg != "nope" {
		t.Fatalf("err = %v", err)
	}
	if nodes := c.Nodes(); len(nodes) != 2 {
		t.Fatalf("app error shrank the ring: %v", nodes)
	}
}

func TestPostJSONRoundTripAndLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in map[string]int
		json.NewDecoder(r.Body).Decode(&in)
		json.NewEncoder(w).Encode(map[string]int{"echo": in["v"] + 1})
	}))
	defer srv.Close()
	timings := metrics.NewTimingSet()
	c := New("a", map[string]string{"b": srv.URL}, Options{Timings: timings})
	var out map[string]int
	if err := c.PostJSON("b", "/x", map[string]int{"v": 41}, &out); err != nil {
		t.Fatal(err)
	}
	if out["echo"] != 42 {
		t.Fatalf("out = %v", out)
	}
	if timings.Summary("peer.b").N != 1 {
		t.Fatal("per-peer latency not observed")
	}
	if st := c.Stats(); st.Peers[0].Requests != 1 {
		t.Fatalf("peer stats %+v", st.Peers[0])
	}
	if err := c.PostJSON("ghost", "/x", nil, nil); err == nil {
		t.Fatal("unknown peer must error")
	}
}

// TestJSONAnswerBounded: a peer that answers 2xx with a JSON body that
// never ends costs its requester one failed read of maxJSONAnswer bytes,
// not memory without bound, and the failure counts against the peer like
// a transport error. The decoder's buffer doubles as it fills, so the
// read allocates a few times the bound (about 4×, both ends of the
// loopback counted); without the bound it allocates until the transport
// times out.
func TestJSONAnswerBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"nodes":{"a":"`)
		chunk := []byte(strings.Repeat("x", 32<<10))
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the requester hung up
			}
		}
	}))
	defer srv.Close()
	c := New("a", map[string]string{"b": srv.URL}, Options{FailureThreshold: 3})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var resp HeartbeatResponse
	err := c.PostJSON("b", PingPath, HeartbeatRequest{From: "a"}, &resp)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("an endless answer decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*maxJSONAnswer {
		t.Fatalf("an endless answer allocated %d bytes; the bound is %d", grew, maxJSONAnswer)
	}
	if st := c.Stats(); st.Peers[0].TransportErrors != 1 {
		t.Fatalf("peer stats %+v; want one failure", st.Peers[0])
	}
}

func TestRingOwners(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"}, 0)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.Owners(key, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("Owners(%q, 2) = %v", key, owners)
		}
		// The primary heads every replica set of the key.
		if primary := r.Owners(key, 1); primary[0] != owners[0] {
			t.Fatalf("Owners(%q, 1) = %v, Owners(%q, 2) = %v", key, primary, key, owners)
		}
		// Asking for more owners than nodes returns every node once.
		all := r.Owners(key, 5)
		if len(all) != 3 {
			t.Fatalf("Owners(%q, 5) = %v", key, all)
		}
		seen := map[string]bool{}
		for _, n := range all {
			seen[n] = true
		}
		if len(seen) != 3 {
			t.Fatalf("Owners returned duplicates: %v", all)
		}
	}
	if got := NewRing(nil, 0).Owners("k", 2); got != nil {
		t.Fatalf("empty ring Owners = %v", got)
	}
	if got := r.Owners("k", 0); got != nil {
		t.Fatalf("Owners(k, 0) = %v", got)
	}
}

// TestSortByHealth: among healthy peers the caller's order stands, however
// slow a peer's requests were; a peer not in the table (self) sorts as
// healthy; a suspect moves behind every healthy peer.
func TestSortByHealth(t *testing.T) {
	c := New("a", map[string]string{"b": "http://h2", "c": "http://h3"}, Options{FailureThreshold: 3})
	defer c.Close()
	c.observe("b", 10*time.Millisecond, false)
	c.observe("c", 1*time.Millisecond, false)
	ids := []string{"b", "d", "c"}
	c.SortByHealth(ids)
	if want := []string{"b", "d", "c"}; !slices.Equal(ids, want) {
		t.Fatalf("healthy order %v, want the caller's %v", ids, want)
	}
	c.observe("b", time.Millisecond, true)
	c.SortByHealth(ids)
	if want := []string{"d", "c", "b"}; !slices.Equal(ids, want) {
		t.Fatalf("order %v, want %v", ids, want)
	}
}

// membershipServer wires a test HTTP server to a late-bound cluster's
// membership handlers, mirroring what the serving plane mounts.
func membershipServer(t *testing.T, cp **Cluster) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PingPath, func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode((*cp).HandleHeartbeat(req))
	})
	mux.HandleFunc("POST "+JoinPath, func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		json.NewDecoder(r.Body).Decode(&req)
		(*cp).AddPeer(req.ID, req.URL)
		json.NewEncoder(w).Encode(JoinResponse{Nodes: (*cp).Membership()})
	})
	mux.HandleFunc("POST "+LeavePath, func(w http.ResponseWriter, r *http.Request) {
		var req LeaveRequest
		json.NewDecoder(r.Body).Decode(&req)
		(*cp).RemovePeer(req.ID)
		json.NewEncoder(w).Encode(map[string]bool{"removed": true})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func waitNodes(t *testing.T, c *Cluster, want []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if slices.Equal(c.Nodes(), want) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("nodes = %v, want %v", c.Nodes(), want)
}

// TestJoinLeaveGossip exercises the membership plane end to end: an
// explicit join spreads through heartbeat gossip to members the joiner
// never contacted, and a leave tombstones the ID so gossip cannot
// resurrect it.
func TestJoinLeaveGossip(t *testing.T) {
	var ca, cb, cc *Cluster
	srvA := membershipServer(t, &ca)
	srvB := membershipServer(t, &cb)
	srvC := membershipServer(t, &cc)
	opt := Options{HeartbeatInterval: 20 * time.Millisecond, Timeout: time.Second}

	// a boots alone, knowing only its own URL.
	ca = New("a", map[string]string{"a": srvA.URL}, opt)
	defer ca.Close()
	// b joins via a.
	cb = New("b", map[string]string{"b": srvB.URL, "a": srvA.URL}, opt)
	defer cb.Close()
	if acked := cb.Join(); acked != 1 {
		t.Fatalf("b.Join acked %d", acked)
	}
	waitNodes(t, ca, []string{"a", "b"})

	// c joins via b only; a must learn c through gossip.
	cc = New("c", map[string]string{"c": srvC.URL, "b": srvB.URL}, opt)
	defer cc.Close()
	cc.Join()
	waitNodes(t, ca, []string{"a", "b", "c"})
	waitNodes(t, cc, []string{"a", "b", "c"})

	// b leaves: a and c drop it, and its ID is tombstoned — heartbeats
	// from the departed node must not re-add it.
	cb.Leave()
	cb.Close()
	waitNodes(t, ca, []string{"a", "c"})
	waitNodes(t, cc, []string{"a", "c"})
	time.Sleep(100 * time.Millisecond) // several gossip rounds
	if nodes := ca.Nodes(); !slices.Equal(nodes, []string{"a", "c"}) {
		t.Fatalf("tombstoned peer resurrected: %v", nodes)
	}
}

func TestPutStream(t *testing.T) {
	var gotBody string
	var gotLen int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			t.Errorf("method %s", r.Method)
		}
		if r.URL.Path == "/reject" {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "bad object"})
			return
		}
		b, _ := io.ReadAll(r.Body)
		gotBody, gotLen = string(b), r.ContentLength
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := New("a", map[string]string{"b": srv.URL}, Options{})
	defer c.Close()
	payload := "framed-object-bytes"
	if err := c.PutStream("b", "/obj", strings.NewReader(payload), int64(len(payload)), nil); err != nil {
		t.Fatal(err)
	}
	if gotBody != payload || gotLen != int64(len(payload)) {
		t.Fatalf("peer saw body %q len %d", gotBody, gotLen)
	}
	err := c.PutStream("b", "/reject", strings.NewReader("x"), 1, nil)
	perr, ok := err.(*PeerError)
	if !ok || perr.Status != http.StatusBadRequest || perr.Msg != "bad object" {
		t.Fatalf("err = %v", err)
	}
}

// TestSortByHealthSuspectLast is the suspect-ordering regression test: a
// suspect peer (mid failure run, not yet down), however fast its requests
// were, must never sort ahead of a healthy replica — and a healthy peer
// that was never asked outranks it too, because "no history" beats
// "currently failing". Downed peers sort last of all.
func TestSortByHealthSuspectLast(t *testing.T) {
	c := New("self", map[string]string{
		"slowhealthy": "http://h1", "fastsuspect": "http://h2",
		"unmeasured": "http://h3", "dead": "http://h4",
	}, Options{FailureThreshold: 3})
	defer c.Close()

	// A slow but healthy peer; a fast peer mid failure run; a dead one.
	c.observe("slowhealthy", 50*time.Millisecond, false)
	c.observe("fastsuspect", 1*time.Millisecond, false)
	c.observe("fastsuspect", 1*time.Millisecond, true)
	for i := 0; i < 3; i++ {
		c.observe("dead", 1*time.Millisecond, true)
	}

	ids := []string{"dead", "fastsuspect", "slowhealthy", "unmeasured"}
	c.SortByHealth(ids)
	want := []string{"slowhealthy", "unmeasured", "fastsuspect", "dead"}
	if !slices.Equal(ids, want) {
		t.Fatalf("order %v, want %v", ids, want)
	}
	// The regression in one line: while any healthy replica exists, no
	// suspect is the first read target.
	if ids[0] == "fastsuspect" || ids[0] == "dead" {
		t.Fatalf("suspect peer ranked first: %v", ids)
	}
}

// TestHedgedCallRescuesStalledPrimary: the hedge fires after the delay,
// the fast replica wins, and the stalled primary's context is cancelled.
func TestHedgedCallRescuesStalledPrimary(t *testing.T) {
	counters := metrics.NewCounterSet()
	c := New("self", map[string]string{"slow": "http://h1", "fast": "http://h2"},
		Options{Counters: counters})
	defer c.Close()

	primaryCancelled := make(chan bool, 1)
	attempt := func(ctx context.Context, peer string) (any, bool, error) {
		if peer == "fast" {
			return "fast-value", true, nil
		}
		select {
		case <-ctx.Done():
			primaryCancelled <- true
			return nil, false, ctx.Err()
		case <-time.After(2 * time.Second):
			primaryCancelled <- false
			return "slow-value", true, nil
		}
	}
	start := time.Now()
	v, peer, ok := c.HedgedCall([]string{"slow", "fast"}, attempt)
	if !ok || peer != "fast" || v != "fast-value" {
		t.Fatalf("HedgedCall = %v, %q, %v", v, peer, ok)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("hedged read took %v; the stalled primary charged its full wait", wall)
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
	select {
	case cancelled := <-primaryCancelled:
		if !cancelled {
			t.Fatal("stalled primary ran to completion instead of being cancelled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled primary never observed its cancellation")
	}
}

// TestHedgedCallPrimaryMissReturnsWithoutHedging: an application-level
// miss from the primary comes back before the hedge delay — the caller's
// replica loop handles the next peer, no hedge fires.
func TestHedgedCallPrimaryMissReturnsWithoutHedging(t *testing.T) {
	counters := metrics.NewCounterSet()
	c := New("self", map[string]string{"a": "http://h1", "b": "http://h2"},
		Options{Counters: counters})
	defer c.Close()

	var calls atomic.Int64
	_, _, ok := c.HedgedCall([]string{"a", "b"}, func(ctx context.Context, peer string) (any, bool, error) {
		calls.Add(1)
		return nil, false, nil
	})
	if ok {
		t.Fatal("miss reported as a win")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("primary miss launched %d attempts, want 1", n)
	}
	if got := counters.Get("peer.hedge_fired"); got != 0 {
		t.Fatalf("hedge_fired = %d, want 0", got)
	}
}

// TestHedgeIgnoresPushLatency: how long a peer took to take a pushed
// object says nothing about how fast it answers a read. A 150 ms push to
// the primary must not stretch the next read's hedge delay: when that read
// stalls for 100 ms, the hedge still fires and the other replica wins.
func TestHedgeIgnoresPushLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		time.Sleep(150 * time.Millisecond)
	}))
	defer srv.Close()
	counters := metrics.NewCounterSet()
	c := New("self", map[string]string{"slow": srv.URL, "fast": "http://h2"},
		Options{Counters: counters})
	defer c.Close()
	payload := strings.Repeat("x", 1<<20)
	if err := c.PutStream("slow", "/obj", strings.NewReader(payload), int64(len(payload)), nil); err != nil {
		t.Fatal(err)
	}

	v, peer, ok := c.HedgedCall([]string{"slow", "fast"}, func(ctx context.Context, peer string) (any, bool, error) {
		if peer == "fast" {
			return "fast-value", true, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(100 * time.Millisecond):
			return "slow-value", true, nil
		}
	})
	if !ok || peer != "fast" || v != "fast-value" {
		t.Fatalf("HedgedCall = %v, %q, %v; the push's latency delayed the hedge past the stall", v, peer, ok)
	}
	if got := counters.Get("peer.hedge_won"); got != 1 {
		t.Fatalf("hedge_won = %d, want 1", got)
	}
}
