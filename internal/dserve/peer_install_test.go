package dserve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"negativaml/internal/cluster"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// installOwner is node "own" of a ring whose other members are peers (id →
// base URL): the node that receives detect requests and resolves their
// install.
func installOwner(t *testing.T, cfg Config, peers map[string]string) (*Service, *httptest.Server) {
	t.Helper()
	svc := NewService(cfg)
	srv := httptest.NewServer(NewHandler(svc))
	urls := map[string]string{"own": srv.URL}
	for id, u := range peers {
		urls[id] = u
	}
	svc.AttachCluster(cluster.New("own", urls, cluster.Options{Counters: svc.Counters, Timeout: 5 * time.Second}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

// installRequester is node "req" with the pytorch/2 install resident, as
// it is once a client batch on it resolved its install. wrap, when
// non-nil, wraps its handler.
func installRequester(t *testing.T, wrap func(http.Handler) http.Handler) (*Service, *httptest.Server, *mlframework.Install) {
	t.Helper()
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	var h http.Handler = NewHandler(svc)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	svc.AttachCluster(cluster.New("req", nil, cluster.Options{}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	in, err := svc.install(mlframework.PyTorch, 2, "", "")
	if err != nil {
		t.Fatal(err)
	}
	return svc, srv, in
}

// detectFor is a detect request for spec against the pytorch/2 install in,
// sent on behalf of node from.
func detectFor(t *testing.T, in *mlframework.Install, spec WorkloadSpec, from string) peerDetectRequest {
	t.Helper()
	wl, err := spec.Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	return peerDetectRequest{
		InstallFP: negativa.InstallFingerprint(in),
		Identity:  negativa.WorkloadIdentity(wl, 2),
		From:      from,
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2, Spec: spec,
	}
}

// localProfileJSON is the profile a standalone run of the request's
// workload detects, in wire form.
func localProfileJSON(t *testing.T, in *mlframework.Install, spec WorkloadSpec) string {
	t.Helper()
	wl, err := spec.Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	p, err := negativa.DetectUsage(wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	return profileJSON(t, p)
}

func profileJSON(t *testing.T, p *negativa.Profile) string {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// installCounts reads a node's install ladder counters.
func installCounts(svc *Service) (generated, fetched int64) {
	return svc.Counters.Get("installs.generated"), svc.Counters.Get("installs.fetched")
}

var mobilenet = WorkloadSpec{Model: "MobileNetV2", Batch: 1}

// TestPeerDetectFetchesTheRequestersInstall: an owner that lacks the
// install pulls the requester's copy instead of generating it, counts the
// pull, and keeps it resident under the spec key for its own batches.
func TestPeerDetectFetchesTheRequestersInstall(t *testing.T) {
	reqSvc, reqSrv, in := installRequester(t, nil)
	own, ownSrv := installOwner(t, Config{Workers: 2, MaxSteps: 2}, map[string]string{"req": reqSrv.URL})

	var dr peerDetectResponse
	if code := postPeer(t, ownSrv, "/v1/peer/detect", detectFor(t, in, mobilenet, "req"), &dr); code != http.StatusOK {
		t.Fatalf("detect status %d", code)
	}
	if got, want := profileJSON(t, dr.Profile), localProfileJSON(t, in, mobilenet); got != want {
		t.Fatal("the profile detected on a fetched install differs from a local run's")
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("owner generated %d installs and fetched %d, want 0 and 1", g, f)
	}
	for name, want := range map[string]int64{
		"peer.objects_fetched": int64(len(in.LibNames)),
		"peer.round_trips":     1,
	} {
		if got := own.Counters.Get(name); got != want {
			t.Errorf("owner %s = %d, want %d", name, got, want)
		}
	}
	if got := reqSvc.Counters.Get("peer.served_installs"); got != 1 {
		t.Errorf("requester peer.served_installs = %d, want 1", got)
	}

	// The owner's own batch of the same spec finds the fetched copy.
	again, err := own.install(mlframework.PyTorch, 2, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("owner's own resolution generated %d installs and fetched %d more", g, f-1)
	}
	for _, name := range in.LibNames {
		if !bytes.Equal(again.Library(name).Data, in.Library(name).Data) {
			t.Fatalf("resident %s differs from the requester's", name)
		}
	}
}

// TestPeerDetectRejectsATamperedInstall: a requester that serves a copy
// with one library byte flipped fails the fingerprint check. The owner
// keeps nothing of that copy, generates the install itself, and returns
// the profile a local run gives.
func TestPeerDetectRejectsATamperedInstall(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := in.WriteWire(&wire); err != nil {
		t.Fatal(err)
	}
	tampered := wire.Bytes()
	first := 8 + int(binary.BigEndian.Uint64(tampered)) + 8 // the first library's bytes
	tampered[first+len(in.Library(in.LibNames[0]).Data)/2] ^= 0x01
	// The copy still parses: what rejects it is the fingerprint.
	if bad, err := mlframework.ReadWire(bytes.NewReader(tampered), int64(len(tampered))); err != nil {
		t.Fatalf("tampered copy no longer parses (%v); flip a different byte", err)
	} else if negativa.InstallFingerprint(bad) == negativa.InstallFingerprint(in) {
		t.Fatal("flipped byte left the fingerprint unchanged")
	}
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(tampered)
	}))
	defer liar.Close()
	own, ownSrv := installOwner(t, Config{Workers: 2, MaxSteps: 2}, map[string]string{"req": liar.URL})

	var dr peerDetectResponse
	if code := postPeer(t, ownSrv, "/v1/peer/detect", detectFor(t, in, mobilenet, "req"), &dr); code != http.StatusOK {
		t.Fatalf("detect status %d", code)
	}
	if got, want := profileJSON(t, dr.Profile), localProfileJSON(t, in, mobilenet); got != want {
		t.Fatal("the profile differs from a local run's")
	}
	if g, f := installCounts(own); g != 1 || f != 0 {
		t.Fatalf("owner generated %d installs and fetched %d, want 1 and 0", g, f)
	}
	resident := own.residentInstall(negativa.InstallFingerprint(in))
	if resident == nil {
		t.Fatal("the generated install is not resident")
	}
	for _, name := range in.LibNames {
		if !bytes.Equal(resident.Library(name).Data, in.Library(name).Data) {
			t.Fatalf("resident %s carries the tampered bytes", name)
		}
	}
}

// TestPeerDetectFetchFallsBackToGenerate: a requester the owner cannot
// fetch from — not on the ring, not reachable, or no longer holding the
// install (404) — costs the owner a generation, never the request.
func TestPeerDetectFetchFallsBackToGenerate(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	empty := NewService(Config{Workers: 1})
	defer empty.Close()
	empty.AttachCluster(cluster.New("req", nil, cluster.Options{}))
	emptySrv := httptest.NewServer(NewHandler(empty))
	defer emptySrv.Close()

	for _, tc := range []struct {
		name, from string
		peers      map[string]string
		trips      int64
	}{
		{"unknown from", "nobody", nil, 0},
		{"unreachable", "req", map[string]string{"req": gone.URL}, 1},
		{"evicted (404)", "req", map[string]string{"req": emptySrv.URL}, 1},
	} {
		own, ownSrv := installOwner(t, Config{Workers: 2, MaxSteps: 2}, tc.peers)
		var dr peerDetectResponse
		if code := postPeer(t, ownSrv, "/v1/peer/detect", detectFor(t, in, mobilenet, tc.from), &dr); code != http.StatusOK {
			t.Fatalf("%s: detect status %d", tc.name, code)
		}
		if dr.Profile == nil || dr.Profile.RunResult == nil {
			t.Fatalf("%s: no profile", tc.name)
		}
		if g, f := installCounts(own); g != 1 || f != 0 {
			t.Fatalf("%s: owner generated %d installs and fetched %d, want 1 and 0", tc.name, g, f)
		}
		if got := own.Counters.Get("peer.round_trips"); got != tc.trips {
			t.Fatalf("%s: peer.round_trips = %d, want %d", tc.name, got, tc.trips)
		}
	}
	if got := empty.Counters.Get("peer.served_installs"); got != 0 {
		t.Fatalf("a node without the install served it %d times", got)
	}
}

// TestPeerDetectFetchesOnce: concurrent detects against one install on one
// owner share a single pull. The requester holds its answer until both
// detects have reached the owner, so the second finds the first's fetch
// in flight rather than finished.
func TestPeerDetectFetchesOnce(t *testing.T) {
	release := make(chan struct{})
	reqSvc, reqSrv, in := installRequester(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/peer/install/") {
				<-release
			}
			h.ServeHTTP(w, r)
		})
	})
	own, ownSrv := installOwner(t, Config{Workers: 2, MaxSteps: 2}, map[string]string{"req": reqSrv.URL})

	specs := []WorkloadSpec{mobilenet, {Model: "Transformer", Batch: 32, Device: "A100"}}
	var wg sync.WaitGroup
	codes := make([]int, len(specs))
	for i, spec := range specs {
		body, err := json.Marshal(detectFor(t, in, spec, "req"))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ownSrv.URL+"/v1/peer/detect", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for own.Counters.Get("peer.served_detects") < int64(len(specs)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Both handlers are in; give the second a moment to reach the install
	// while the first one's pull is still held. The counts below hold for a
	// correct owner however the two interleave.
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("detect %d status %d", i, code)
		}
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("owner generated %d installs and fetched %d, want 0 and 1", g, f)
	}
	if got := reqSvc.Counters.Get("peer.served_installs"); got != 1 {
		t.Fatalf("requester served the install %d times, want 1", got)
	}
	if got := own.Counters.Get("peer.executed_detects"); got != int64(len(specs)) {
		t.Fatalf("owner executed %d detects, want %d", got, len(specs))
	}
}

// TestInstallRouteTakesNoSlot: a requester whose every pool slot and every
// peer-execution slot is held — its batch waiting on an owner's detect,
// its own detect handlers busy — still serves its install, so the owner's
// pull cannot close a cross-node wait cycle.
func TestInstallRouteTakesNoSlot(t *testing.T) {
	reqSvc, reqSrv, in := installRequester(t, nil)
	for i := 0; i < reqSvc.Workers(); i++ {
		reqSvc.pool.Acquire()
		defer reqSvc.pool.Release()
	}
	for i := 0; i < cap(reqSvc.peerSem); i++ {
		reqSvc.peerSem <- struct{}{}
		defer func() { <-reqSvc.peerSem }()
	}
	quick := http.Client{Timeout: 2 * time.Second}
	resp, err := quick.Get(reqSrv.URL + "/v1/peer/install/" + negativa.InstallFingerprint(in))
	if err != nil {
		t.Fatalf("install route waited for a slot: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("install route status %d", resp.StatusCode)
	}
	got, err := mlframework.ReadWire(resp.Body, peerBodyLimit)
	if err != nil {
		t.Fatal(err)
	}
	if negativa.InstallFingerprint(got) != negativa.InstallFingerprint(in) {
		t.Fatal("served install fingerprints differently")
	}
}

// TestFetchedInstallsCountTowardMaxInstalls: a fetched install takes a
// slot of the bounded install cache like a generated one, and leaves it
// (and the install route) the same way.
func TestFetchedInstallsCountTowardMaxInstalls(t *testing.T) {
	_, reqSrv, in := installRequester(t, nil)
	own, ownSrv := installOwner(t, Config{Workers: 2, MaxSteps: 2, MaxInstalls: 1}, map[string]string{"req": reqSrv.URL})
	if code := postPeer(t, ownSrv, "/v1/peer/detect", detectFor(t, in, mobilenet, "req"), nil); code != http.StatusOK {
		t.Fatalf("detect status %d", code)
	}
	fp := negativa.InstallFingerprint(in)
	if _, f := installCounts(own); f != 1 || own.residentInstall(fp) == nil {
		t.Fatalf("fetched %d installs; resident: %v", f, own.residentInstall(fp) != nil)
	}
	if _, err := own.install(mlframework.PyTorch, 3, "", ""); err != nil {
		t.Fatal(err)
	}
	if got := own.Counters.Get("installs.evicted"); got != 1 {
		t.Fatalf("installs.evicted = %d, want 1", got)
	}
	if own.residentInstall(fp) != nil {
		t.Fatal("the fetched install outlived its eviction")
	}
	resp, err := http.Get(ownSrv.URL + "/v1/peer/install/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted install route status %d, want 404", resp.StatusCode)
	}
}

// BenchmarkReceiveInstall is what a detect owner pays for an install it
// does not hold, in place of mlframework.Generate: decode the served
// pytorch20 transfer form, parse its 33 libraries and fingerprint them
// (which builds their analysis indexes, across CPUs above -cpu 1).
func BenchmarkReceiveInstall(b *testing.B) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 20})
	if err != nil {
		b.Fatal(err)
	}
	var wire bytes.Buffer
	if err := in.WriteWire(&wire); err != nil {
		b.Fatal(err)
	}
	fp := negativa.InstallFingerprint(in)
	b.SetBytes(int64(wire.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := mlframework.ReadWire(bytes.NewReader(wire.Bytes()), peerBodyLimit)
		if err != nil {
			b.Fatal(err)
		}
		if negativa.InstallFingerprint(got) != fp {
			b.Fatal("fingerprint mismatch")
		}
	}
}
