package dserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// soloCluster attaches a single-node cluster to the service so its peer
// routes answer (they 404 on non-clustered nodes); an empty peer map makes
// a self-only ring, so stage routing is unchanged.
func soloCluster(svc *Service) {
	svc.AttachCluster(cluster.New("solo", nil, cluster.Options{}))
}

func postPeer(t *testing.T, srv *httptest.Server, path string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestPeerLookupMissesAndRejections: a miss, a malformed detect hash, and
// a stage with no peer tier each answer found=false in place — one bad key
// never fails the batch it rode in.
func TestPeerLookupMissesAndRejections(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	req := peerBatchLookupRequest{Keys: []peerLookupRequest{
		{Stage: negativa.StageCompact, Hash: "nope"},
		{Stage: negativa.StageDetect, Hash: "no-separator"},
		{Stage: "union", Hash: "x"},
	}}
	var resp peerBatchLookupResponse
	if code := postPeer(t, srv, "/v1/peer/lookup-batch", req, &resp); code != http.StatusOK {
		t.Fatalf("batch with unservable keys: status %d", code)
	}
	if len(resp.Results) != len(req.Keys) {
		t.Fatalf("%d results for %d keys", len(resp.Results), len(req.Keys))
	}
	for i, lr := range resp.Results {
		if lr.Found || lr.Profile != nil || lr.Result != nil || lr.Sparse != nil {
			t.Fatalf("key %+v: lookup invented a result: %+v", req.Keys[i], lr)
		}
	}
	if got := svc.Counters.Get("peer.served_hits"); got != 0 {
		t.Fatalf("peer.served_hits = %d after three unservable keys", got)
	}
}

// TestPeerJSONBodyLimits: the payload-free JSON routes decode under limits
// sized from their key bounds, not the object-transfer bound — an oversize
// body is 413 before it is buffered, a full in-bound batch still answers.
func TestPeerJSONBodyLimits(t *testing.T) {
	st, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewService(Config{Workers: 1, Store: st})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	hash := strings.Repeat("ab", 32)
	lookupKeys := func(n int, hash string) peerBatchLookupRequest {
		req := peerBatchLookupRequest{Keys: make([]peerLookupRequest, n)}
		for i := range req.Keys {
			req.Keys[i] = peerLookupRequest{Stage: negativa.StageCompact, Hash: hash}
		}
		return req
	}
	statRefs := func(n int, key string) peerStatRequest {
		req := peerStatRequest{Objects: make([]peerObjectRef, n)}
		for i := range req.Objects {
			req.Objects[i] = peerObjectRef{Kind: kindResult, Key: key}
		}
		return req
	}
	for _, tc := range []struct {
		name, path string
		body       any
		want       int
	}{
		{"full lookup batch", "/v1/peer/lookup-batch", lookupKeys(maxBatchLookupKeys, hash), http.StatusOK},
		{"oversize lookup batch", "/v1/peer/lookup-batch", lookupKeys(1, strings.Repeat("x", peerLookupBatchLimit)), http.StatusRequestEntityTooLarge},
		{"full stat probe", "/v1/peer/stat", statRefs(maxStatObjects, hash), http.StatusOK},
		{"oversize stat probe", "/v1/peer/stat", statRefs(1, strings.Repeat("x", peerStatLimit)), http.StatusRequestEntityTooLarge},
	} {
		if code := postPeer(t, srv, tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}
}

// TestPeerDetectMismatches: a fingerprint the owner cannot reproduce (or
// an identity the spec does not resolve to) must be refused, not papered
// over with a wrong profile.
func TestPeerDetectMismatches(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	req := peerDetectRequest{
		InstallFP: "not-a-real-fingerprint", Identity: "whatever",
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2,
		Spec: WorkloadSpec{Model: "MobileNetV2", Batch: 1},
	}
	if code := postPeer(t, srv, "/v1/peer/detect", req, nil); code != http.StatusConflict {
		t.Fatalf("fingerprint mismatch status %d", code)
	}
	if code := postPeer(t, srv, "/v1/peer/detect", peerDetectRequest{Framework: "no-such", Spec: req.Spec}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad framework status %d", code)
	}

	// A correct fingerprint with a wrong identity is still refused.
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	req.InstallFP = negativa.InstallFingerprint(in)
	if code := postPeer(t, srv, "/v1/peer/detect", req, nil); code != http.StatusBadRequest {
		t.Fatalf("identity mismatch status %d", code)
	}
}

// wellFormedDetect is a detect request the owner will accept and execute:
// fingerprint and identity computed from the install and workload the
// request's own config resolves to.
func wellFormedDetect(t *testing.T) peerDetectRequest {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := WorkloadSpec{Model: "MobileNetV2", Batch: 1}
	wl, err := spec.Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	return peerDetectRequest{
		InstallFP: negativa.InstallFingerprint(in),
		Identity:  negativa.WorkloadIdentity(wl, 2),
		Framework: "pytorch", TailLibs: 2, MaxSteps: 2, Spec: spec,
	}
}

// TestPeerDetectExecutesAndRegisters: a well-formed remote detect runs on
// the owner and lands in its registry, so the next call is a hit.
func TestPeerDetectExecutesAndRegisters(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	req := wellFormedDetect(t)
	var dr peerDetectResponse
	if code := postPeer(t, srv, "/v1/peer/detect", req, &dr); code != http.StatusOK {
		t.Fatalf("detect status %d", code)
	}
	if dr.Hit || dr.Profile == nil || dr.Profile.RunResult == nil {
		t.Fatalf("first detect should execute: %+v", dr)
	}
	var dr2 peerDetectResponse
	if code := postPeer(t, srv, "/v1/peer/detect", req, &dr2); code != http.StatusOK {
		t.Fatalf("second detect status %d", code)
	}
	if !dr2.Hit {
		t.Fatal("owner did not memoize the executed detect stage")
	}
}

// TestPeerDetectValidatesBeforeTakingASlot: with every peer-execution slot
// held, a malformed detect request is still refused at once — it never
// queues for, or holds, a slot meant for executing detects — while a
// well-formed one waits for a slot and then runs.
func TestPeerDetectValidatesBeforeTakingASlot(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	held := cap(svc.peerSem)
	for i := 0; i < held; i++ {
		svc.peerSem <- struct{}{}
	}
	// Runs before srv.Close, which waits for handlers still parked on a slot.
	defer func() {
		for ; held > 0; held-- {
			<-svc.peerSem
		}
	}()

	quick := http.Client{Timeout: time.Second}
	spec := func(m func(*WorkloadSpec)) WorkloadSpec {
		sp := WorkloadSpec{Model: "MobileNetV2", Batch: 1}
		m(&sp)
		return sp
	}
	for name, req := range map[string]peerDetectRequest{
		"bad framework":  {Framework: "no-such", Spec: spec(func(*WorkloadSpec) {})},
		"unknown model":  {Framework: "pytorch", Spec: spec(func(sp *WorkloadSpec) { sp.Model = "ResNet" })},
		"negative batch": {Framework: "pytorch", Spec: spec(func(sp *WorkloadSpec) { sp.Batch = -1 })},
		"negative epochs": {Framework: "pytorch", Spec: spec(func(sp *WorkloadSpec) {
			sp.Train, sp.Epochs = true, -2
		})},
		"negative gpus":  {Framework: "pytorch", Spec: spec(func(sp *WorkloadSpec) { sp.GPUs = -1 })},
		"unknown device": {Framework: "pytorch", Spec: spec(func(sp *WorkloadSpec) { sp.Device = "V100" })},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := quick.Post(srv.URL+"/v1/peer/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: malformed request waited for an execution slot: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := svc.Counters.Get("installs.generated") + svc.Counters.Get("installs.fetched"); got != 0 {
		t.Fatalf("malformed requests resolved %d installs", got)
	}

	body, err := json.Marshal(wellFormedDetect(t))
	if err != nil {
		t.Fatal(err)
	}
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/peer/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case code := <-status:
		t.Fatalf("well-formed detect finished (status %d) with no execution slot free", code)
	case <-time.After(100 * time.Millisecond):
	}
	<-svc.peerSem
	held--
	if code := <-status; code != http.StatusOK {
		t.Fatalf("detect status %d once a slot was free", code)
	}
	if got := svc.Counters.Get("peer.executed_detects"); got != 1 {
		t.Fatalf("peer.executed_detects = %d, want 1", got)
	}
}

// TestPeerRoutesRequireCluster: the peer surface is node-to-node only —
// on a non-clustered node every peer route answers 404 so a standalone
// deployment exposes no analysis-compute or object-transfer endpoints.
func TestPeerRoutesRequireCluster(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	if code := postPeer(t, srv, "/v1/peer/lookup-batch", peerBatchLookupRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("lookup-batch without a cluster: status %d, want 404", code)
	}
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/peer/objects/lib/deadbeef", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("object push without a cluster: status %d, want 404", resp.StatusCode)
	}
}

// TestPeerSecretEnforced: a cluster configured with a shared secret
// refuses peer requests without it (constant-time compare, 401), accepts
// them with it, and the cluster transport attaches it automatically.
func TestPeerSecretEnforced(t *testing.T) {
	svc := NewService(Config{Workers: 1, MaxSteps: 2})
	defer svc.Close()
	svc.AttachCluster(cluster.New("solo", nil, cluster.Options{Secret: "ring-credential"}))
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	probe := peerBatchLookupRequest{Keys: []peerLookupRequest{{Stage: negativa.StageCompact, Hash: "nope"}}}
	body, _ := json.Marshal(probe)
	do := func(secret string) int {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/peer/lookup-batch", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if secret != "" {
			req.Header.Set(cluster.PeerSecretHeader, secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do(""); code != http.StatusUnauthorized {
		t.Fatalf("no secret: status %d, want 401", code)
	}
	if code := do("wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong secret: status %d, want 401", code)
	}
	if code := do("ring-credential"); code != http.StatusOK {
		t.Fatalf("correct secret: status %d, want 200", code)
	}

	// The cluster client carries the secret on its own requests: a peer
	// configured with the matching secret can call through PostJSON ...
	peerOK := cluster.New("b", map[string]string{"a": srv.URL}, cluster.Options{Secret: "ring-credential"})
	var lr peerBatchLookupResponse
	if err := peerOK.PostJSON("a", "/v1/peer/lookup-batch", probe, &lr); err != nil {
		t.Fatalf("peer with matching secret: %v", err)
	}
	// ... and one with no (or the wrong) secret is refused.
	peerBad := cluster.New("b", map[string]string{"a": srv.URL}, cluster.Options{})
	if err := peerBad.PostJSON("a", "/v1/peer/lookup-batch", probe, &lr); err == nil {
		t.Fatal("peer without the secret was accepted")
	}
}
