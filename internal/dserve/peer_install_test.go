package dserve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"negativaml/internal/cluster"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// installOwner is node "own" of a ring: the node that receives install
// pushes and resolves them. Its listener counts the bytes it receives.
func installOwner(t *testing.T, cfg Config) (*Service, *httptest.Server, *countingListener) {
	t.Helper()
	svc := NewService(cfg)
	srv := httptest.NewUnstartedServer(NewHandler(svc))
	ln := &countingListener{Listener: srv.Listener}
	srv.Listener = ln
	srv.Start()
	svc.AttachCluster(cluster.New("own", map[string]string{"own": srv.URL}, cluster.Options{Counters: svc.Counters, Timeout: 5 * time.Second}))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv, ln
}

// installPusher is node "req", whose ring reaches the owner at ownURL, with
// the pytorch/2 install resident, as it is once a client batch on it
// generated its install.
func installPusher(t *testing.T, ownURL string) (*Service, *mlframework.Install) {
	t.Helper()
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	svc.AttachCluster(cluster.New("req", map[string]string{"own": ownURL}, cluster.Options{Counters: svc.Counters}))
	t.Cleanup(svc.Close)
	return svc, generate(t, svc)
}

// pushWire pushes body to the owner at ownURL as the pytorch/2 install with
// fingerprint fp, over the transport a generating node pushes with (a PUT
// of unknown length, which asks first), and returns the status.
func pushWire(t *testing.T, ownURL, fp string, body io.Reader) int {
	t.Helper()
	c := cluster.New("req", map[string]string{"own": ownURL}, cluster.Options{Timeout: 5 * time.Second})
	err := c.PutStream("own", installPath(fp, "req", "pytorch", 2), body, -1)
	var perr *cluster.PeerError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &perr):
		return perr.Status
	}
	t.Fatal(err)
	return 0
}

// wireOf is in's transfer form.
func wireOf(t *testing.T, in *mlframework.Install) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := in.WriteWire(&wire); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// installCounts reads a node's install ladder counters.
func installCounts(svc *Service) (generated, fetched int64) {
	return svc.Counters.Get("installs.generated"), svc.Counters.Get("installs.fetched")
}

// resident is the install svc holds for pytorch/2; the test fails if
// resolving it generates.
func resident(t *testing.T, svc *Service) *mlframework.Install {
	t.Helper()
	g, _ := installCounts(svc)
	in, err := svc.install(mlframework.PyTorch, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if now, _ := installCounts(svc); now != g {
		t.Fatal("pytorch/2 was not resident")
	}
	return in
}

// sameImages fails the test unless got carries want's library bytes.
func sameImages(t *testing.T, got, want *mlframework.Install) {
	t.Helper()
	for _, name := range want.LibNames {
		if !bytes.Equal(got.Library(name).Data, want.Library(name).Data) {
			t.Fatalf("resident %s differs from the generated one", name)
		}
	}
}

// countingConn counts the bytes a server reads off one connection.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// countingListener counts the bytes its server reads, per connection.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := new(atomic.Int64)
	l.mu.Lock()
	l.conns = append(l.conns, n)
	l.mu.Unlock()
	return countingConn{Conn: c, n: n}, nil
}

// received returns the bytes read off each connection so far, in accept
// order, and their sum.
func (l *countingListener) received() (perConn []int64, total int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.conns {
		perConn = append(perConn, n.Load())
		total += n.Load()
	}
	return perConn, total
}

// TestPeerDetectFetchesTheRequestersInstall: an owner of a peer's detect
// keys that lacks the install keeps the pushed copy instead of generating
// it, counts it, and keeps it resident under the spec key for its own
// batches. The owner makes no peer request for it.
func TestPeerDetectFetchesTheRequestersInstall(t *testing.T) {
	own, ownSrv, _ := installOwner(t, Config{Workers: 2, MaxSteps: 2})
	req, in := installPusher(t, ownSrv.URL)
	path := installPath(negativa.InstallFingerprint(in), "req", "pytorch", 2)

	if err := req.pushInstall("own", path, in); err != nil {
		t.Fatal(err)
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("owner generated %d installs and received %d, want 0 and 1", g, f)
	}
	for name, want := range map[string]int64{
		"peer.objects_fetched": int64(len(in.LibNames)),
		"peer.round_trips":     0,
	} {
		if got := own.Counters.Get(name); got != want {
			t.Errorf("owner %s = %d, want %d", name, got, want)
		}
	}

	// The owner's own batch of the same spec finds the pushed copy.
	sameImages(t, resident(t, own), in)
	// A second push of a resident install is answered without its body.
	if err := req.pushInstall("own", path, in); err != nil {
		t.Fatalf("repeated push: %v", err)
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("a repeated push generated %d installs and received %d", g, f)
	}
}

// TestPeerDetectRejectsATamperedInstall: a pushed copy with one library
// byte flipped fails the fingerprint check. The owner keeps nothing of
// that copy and generates the install itself.
func TestPeerDetectRejectsATamperedInstall(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	tampered := wireOf(t, in)
	first := 8 + int(binary.BigEndian.Uint64(tampered)) + 8 // the first library's bytes
	tampered[first+len(in.Library(in.LibNames[0]).Data)/2] ^= 0x01
	// The copy still parses: what rejects it is the fingerprint.
	if bad, err := mlframework.ReadWire(bytes.NewReader(tampered), int64(len(tampered))); err != nil {
		t.Fatalf("tampered copy no longer parses (%v); flip a different byte", err)
	} else if negativa.InstallFingerprint(bad) == negativa.InstallFingerprint(in) {
		t.Fatal("flipped byte left the fingerprint unchanged")
	}
	own, ownSrv, _ := installOwner(t, Config{Workers: 2, MaxSteps: 2})

	if code := pushWire(t, ownSrv.URL, negativa.InstallFingerprint(in), bytes.NewReader(tampered)); code != http.StatusOK {
		t.Fatalf("push status %d", code)
	}
	if g, f := installCounts(own); g != 1 || f != 0 {
		t.Fatalf("owner generated %d installs and received %d, want 1 and 0", g, f)
	}
	sameImages(t, resident(t, own), in)
}

// TestPeerDetectFetchFallsBackToGenerate: a push the owner cannot use — cut
// short, not an install at all, or empty — costs the owner a generation,
// never the push.
func TestPeerDetectFetchFallsBackToGenerate(t *testing.T) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	wire := wireOf(t, in)
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"truncated", wire[:len(wire)/2]},
		{"not an install", bytes.Repeat([]byte{0xff}, 4096)},
		{"empty", nil},
	} {
		own, ownSrv, _ := installOwner(t, Config{Workers: 2, MaxSteps: 2})
		if code := pushWire(t, ownSrv.URL, negativa.InstallFingerprint(in), bytes.NewReader(tc.body)); code != http.StatusOK {
			t.Fatalf("%s: push status %d", tc.name, code)
		}
		if g, f := installCounts(own); g != 1 || f != 0 {
			t.Fatalf("%s: owner generated %d installs and received %d, want 1 and 0", tc.name, g, f)
		}
		sameImages(t, resident(t, own), in)
	}
}

// TestInstallPushAsksFirst: a push asks before it sends. An owner whose
// spec slot already holds the install answers 200 having received its
// request's headers only, not the install. An owner that does read a push
// keeps none of a body that fingerprints to another install — here a whole
// other, valid install under pytorch/2's fingerprint — and generates.
func TestInstallPushAsksFirst(t *testing.T) {
	t.Run("holder reads headers only", func(t *testing.T) {
		own, ownSrv, ln := installOwner(t, Config{Workers: 2, MaxSteps: 2})
		held := generate(t, own)
		req, in := installPusher(t, ownSrv.URL)
		_, before := ln.received()
		if err := req.pushInstall("own", installPath(negativa.InstallFingerprint(in), "req", "pytorch", 2), in); err != nil {
			t.Fatalf("push to a holder: %v", err)
		}
		if _, after := ln.received(); after-before >= 4<<10 {
			t.Fatalf("the holder's listener received %d bytes for the push, want headers only (< 4 KiB)", after-before)
		}
		if g, f := installCounts(own); g != 1 || f != 0 {
			t.Fatalf("holder generated %d installs and received %d, want 1 and 0", g, f)
		}
		if resident(t, own) != held {
			t.Fatal("the push replaced the held install")
		}
	})
	t.Run("another install under the fingerprint", func(t *testing.T) {
		in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
		if err != nil {
			t.Fatal(err)
		}
		other, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 3})
		if err != nil {
			t.Fatal(err)
		}
		own, ownSrv, _ := installOwner(t, Config{Workers: 2, MaxSteps: 2})
		if code := pushWire(t, ownSrv.URL, negativa.InstallFingerprint(in), bytes.NewReader(wireOf(t, other))); code != http.StatusOK {
			t.Fatalf("push status %d", code)
		}
		if g, f := installCounts(own); g != 1 || f != 0 {
			t.Fatalf("owner generated %d installs and received %d, want 1 and 0", g, f)
		}
		got := resident(t, own)
		if len(got.LibNames) != len(in.LibNames) {
			t.Fatalf("resident install has %d libraries, want pytorch/2's %d", len(got.LibNames), len(in.LibNames))
		}
		sameImages(t, got, in)
	})
}

// generate resolves svc's pytorch/2 install, generating it, and returns it.
func generate(t *testing.T, svc *Service) *mlframework.Install {
	t.Helper()
	in, err := svc.install(mlframework.PyTorch, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// gatedBody serves head, then blocks until release closes, then serves
// tail.
type gatedBody struct {
	head, tail []byte
	release    chan struct{}
}

func (b *gatedBody) Read(p []byte) (int, error) {
	if len(b.head) > 0 {
		n := copy(p, b.head)
		b.head = b.head[n:]
		return n, nil
	}
	<-b.release
	if len(b.tail) == 0 {
		return 0, io.EOF
	}
	n := copy(p, b.tail)
	b.tail = b.tail[n:]
	return n, nil
}

// TestInstallOfferFetchesOnce: concurrent pushes of one install to one
// owner resolve it once, and the owner never reads the second push's body.
// Each push holds back all but its first bytes until both have reached
// the owner, so the second finds the first's resolution in flight rather
// than finished.
func TestInstallOfferFetchesOnce(t *testing.T) {
	const pushes = 2
	own, ownSrv, ln := installOwner(t, Config{Workers: 2, MaxSteps: 2})
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	wire, fp := wireOf(t, in), negativa.InstallFingerprint(in)
	release := make(chan struct{})
	var wg sync.WaitGroup
	codes := make([]int, pushes)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = pushWire(t, ownSrv.URL, fp, &gatedBody{head: wire[:64], tail: wire[64:], release: release})
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for own.Counters.Get("peer.served_offers") < pushes && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Both handlers are in; give the second a moment to reach the install
	// while the first one's body is still held. The counts below hold for a
	// correct owner however the two interleave.
	time.Sleep(5 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("push %d status %d", i, code)
		}
	}
	if g, f := installCounts(own); g != 0 || f != 1 {
		t.Fatalf("owner generated %d installs and received %d, want 0 and 1", g, f)
	}
	// Each push came on its own connection; one of them carried an install.
	perConn, _ := ln.received()
	bodies := 0
	for _, n := range perConn {
		if n >= 4<<10 {
			bodies++
		}
	}
	if len(perConn) != pushes || bodies != 1 {
		t.Fatalf("the owner received %v bytes on its connections, want one install and one request's headers", perConn)
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
	if got := svc.Counters.Get("peer.served_pings"); got != 1 {
		t.Fatalf("the pusher served %d heartbeats, want the one its owner sends on taking a push", got)
	}
}

// TestInstallRouteTakesNoSlot: a node whose every pool slot is held still
// takes a pushed install, so a push never waits on the batches running
// there.
func TestInstallRouteTakesNoSlot(t *testing.T) {
	own, ownSrv, _ := installOwner(t, Config{Workers: 2, MaxSteps: 2})
	for i := 0; i < own.Workers(); i++ {
		own.pool.Acquire()
		defer own.pool.Release()
	}
	req, in := installPusher(t, ownSrv.URL)
	done := make(chan error, 1)
	go func() {
		done <- req.pushInstall("own", installPath(negativa.InstallFingerprint(in), "req", "pytorch", 2), in)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("install route waited for a slot")
	}
	if _, f := installCounts(own); f != 1 {
		t.Fatalf("owner received %d installs, want 1", f)
	}
}

// TestFetchedInstallsCountTowardMaxInstalls: a received install takes a
// slot of the bounded install cache like a generated one, and leaves it
// the same way: once evicted, the next push of it is read again.
func TestFetchedInstallsCountTowardMaxInstalls(t *testing.T) {
	own, ownSrv, _ := installOwner(t, Config{Workers: 2, MaxSteps: 2})
	req, in := installPusher(t, ownSrv.URL)
	path := installPath(negativa.InstallFingerprint(in), "req", "pytorch", 2)
	if err := req.pushInstall("own", path, in); err != nil {
		t.Fatal(err)
	}
	if _, f := installCounts(own); f != 1 {
		t.Fatalf("received %d installs, want 1", f)
	}
	// maxInstalls other specs, small ones first, push the received one out.
	added := 0
	for tail := 0; added < maxInstalls; tail++ {
		for _, fw := range []string{mlframework.PyTorch, mlframework.TensorFlow, mlframework.VLLM, mlframework.HFTransformers} {
			if added == maxInstalls || (fw == mlframework.PyTorch && tail == 2) {
				continue
			}
			if _, err := own.install(fw, tail, nil); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	if got := own.Counters.Get("installs.evicted"); got != 1 {
		t.Fatalf("installs.evicted = %d, want 1", got)
	}
	if err := req.pushInstall("own", path, in); err != nil {
		t.Fatal(err)
	}
	if g, f := installCounts(own); f != 2 || g != maxInstalls {
		t.Fatalf("after eviction: received %d installs and generated %d, want 2 and %d", f, g, maxInstalls)
	}
}

// BenchmarkReceiveInstall is what an owner pays to receive a pushed install
// it does not hold, in place of mlframework.Generate: decode the pushed
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
