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
// base URL): the node that receives install offers and resolves them.
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

// offerOf is node from's offer of the pytorch/2 install in.
func offerOf(in *mlframework.Install, from string) peerInstallOffer {
	return peerInstallOffer{InstallFP: negativa.InstallFingerprint(in), From: from, Framework: "pytorch", TailLibs: 2}
}

// installCounts reads a node's install ladder counters.
func installCounts(svc *Service) (generated, fetched int64) {
	return svc.Counters.Get("installs.generated"), svc.Counters.Get("installs.fetched")
}

// TestPeerDetectFetchesTheRequestersInstall: an owner of a peer's detect
// keys that lacks the install pulls the offering peer's copy instead of
// generating it, counts the pull, and keeps it resident under the spec key
// for its own batches.
func TestPeerDetectFetchesTheRequestersInstall(t *testing.T) {
	reqSvc, reqSrv, in := installRequester(t, nil)
	own, ownSrv := installOwner(t, Config{Workers: 2, MaxSteps: 2}, map[string]string{"req": reqSrv.URL})

	if code := postPeer(t, ownSrv, "/v1/peer/install-offer", offerOf(in, "req"), nil); code != http.StatusOK {
		t.Fatalf("offer status %d", code)
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
	// A second offer of a resident install pulls nothing.
	if code := postPeer(t, ownSrv, "/v1/peer/install-offer", offerOf(in, "req"), nil); code != http.StatusOK {
		t.Fatalf("repeated offer status %d", code)
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("a repeated offer generated %d installs and fetched %d", g, f)
	}
}

// TestPeerDetectRejectsATamperedInstall: an offering peer that serves a
// copy with one library byte flipped fails the fingerprint check. The
// owner keeps nothing of that copy and generates the install itself.
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

	if code := postPeer(t, ownSrv, "/v1/peer/install-offer", offerOf(in, "req"), nil); code != http.StatusOK {
		t.Fatalf("offer status %d", code)
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

// TestPeerDetectFetchFallsBackToGenerate: an offering peer the owner
// cannot fetch from — not on the ring, not reachable, or no longer holding
// the install (404) — costs the owner a generation, never the offer.
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
		if code := postPeer(t, ownSrv, "/v1/peer/install-offer", offerOf(in, tc.from), nil); code != http.StatusOK {
			t.Fatalf("%s: offer status %d", tc.name, code)
		}
		if own.residentInstall(negativa.InstallFingerprint(in)) == nil {
			t.Fatalf("%s: the generated install is not resident", tc.name)
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

// TestInstallOfferFetchesOnce: concurrent offers of one install to one
// owner share a single pull. The requester holds its answer until both
// offers have reached the owner, so the second finds the first's fetch in
// flight rather than finished.
func TestInstallOfferFetchesOnce(t *testing.T) {
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

	body, err := json.Marshal(offerOf(in, "req"))
	if err != nil {
		t.Fatal(err)
	}
	const offers = 2
	var wg sync.WaitGroup
	codes := make([]int, offers)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ownSrv.URL+"/v1/peer/install-offer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for own.Counters.Get("peer.served_offers") < offers && time.Now().Before(deadline) {
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
			t.Fatalf("offer %d status %d", i, code)
		}
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("owner generated %d installs and fetched %d, want 0 and 1", g, f)
	}
	if got := reqSvc.Counters.Get("peer.served_installs"); got != 1 {
		t.Fatalf("requester served the install %d times, want 1", got)
	}
}

// TestInstallOfferNeverFailsTheBatch: a spec batch whose detect keys are
// co-owned by a down node and by a store-less one still completes and
// verifies. The offer to the down owner is counted as an error; the
// store-less owner takes its offer, since an install lives in memory.
func TestInstallOfferNeverFailsTheBatch(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	bare := NewService(Config{Workers: 1})
	bareSrv := httptest.NewServer(NewHandler(bare))
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	srv := httptest.NewServer(NewHandler(svc))
	defer func() {
		srv.Close()
		bareSrv.Close()
		svc.Close()
		bare.Close()
	}()
	bare.AttachCluster(cluster.New("bare", map[string]string{"req": srv.URL}, cluster.Options{Counters: bare.Counters}))
	// A high failure threshold keeps the down node on the ring, so it stays
	// an owner the batch offers to.
	svc.AttachCluster(cluster.New("req", map[string]string{"down": gone.URL, "bare": bareSrv.URL}, cluster.Options{
		Counters: svc.Counters, FailureThreshold: 100, Probation: time.Hour, Timeout: 5 * time.Second,
	}))

	st := postJob(t, srv, JobRequest{Framework: "pytorch", TailLibs: 2, MaxSteps: 2, Workloads: []WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "Transformer", Batch: 32, Device: "A100"},
		{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
	}})
	if done := pollDone(t, srv, st.ID); done.State != JobDone || done.Verified == nil || !*done.Verified {
		t.Fatalf("batch with a down and a store-less owner: state %s, error %q", done.State, done.Error)
	}
	svc.WaitReplication()
	res := svc.Job(st.ID).Result
	owners := map[string]bool{}
	for _, wo := range res.Workloads {
		for _, id := range svc.Cluster().Owners(negativa.DetectKey(res.InstallFP, wo.Identity).String()) {
			owners[id] = true
		}
	}
	if !owners["down"] || !owners["bare"] {
		t.Fatalf("detect owners %v: the test needs both the down and the store-less node among them", owners)
	}
	if sent, failed := svc.Counters.Get("peer.offers"), svc.Counters.Get("peer.offer_errors"); sent != 1 || failed != 1 {
		t.Fatalf("offers: %d taken and %d failed, want 1 and 1", sent, failed)
	}
	if g, f := installCounts(bare); g != 0 || f != 1 {
		t.Fatalf("the store-less owner generated %d installs and fetched %d, want 0 and 1", g, f)
	}
}

// TestInstallRouteTakesNoSlot: a node whose every pool slot is held still
// serves its install, so an owner's pull never waits on the batches
// running there.
func TestInstallRouteTakesNoSlot(t *testing.T) {
	reqSvc, reqSrv, in := installRequester(t, nil)
	for i := 0; i < reqSvc.Workers(); i++ {
		reqSvc.pool.Acquire()
		defer reqSvc.pool.Release()
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
	if code := postPeer(t, ownSrv, "/v1/peer/install-offer", offerOf(in, "req"), nil); code != http.StatusOK {
		t.Fatalf("offer status %d", code)
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

// BenchmarkReceiveInstall is what an offered owner pays for an install it
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
