package dserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

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

// answerEntry is one entry of a lookup-batch answer: its name and record.
type answerEntry struct {
	name string
	rec  []byte
}

// postLookup posts a lookup-batch request to srv and reads the answer's
// entries in order, each checked against its frame's sum.
func postLookup(t *testing.T, srv *httptest.Server, req peerBatchLookupRequest) (int, []answerEntry) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/peer/lookup-batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, readAnswer(t, resp.Body)
}

// readAnswer reads a lookup-batch answer's entries in order, each checked
// against its frame's sum. Safe off the test's goroutine: an answer that
// does not read whole is reported with t.Errorf.
func readAnswer(t *testing.T, body io.Reader) []answerEntry {
	var entries []answerEntry
	e := castore.NewEntryReader(body, maxLookupAnswerBytes)
	for {
		kind, key, err := e.Next()
		if err == io.EOF {
			return entries
		} else if err != nil {
			t.Errorf("lookup-batch answer: %v", err)
			return entries
		}
		f, err := e.Frame()
		if err != nil {
			t.Errorf("lookup-batch answer: %v", err)
			return entries
		}
		entries = append(entries, answerEntry{kind + "/" + key, f.Payload()})
	}
}

// TestPeerLookupMissesAndRejections: a miss, a malformed detect hash, and
// a stage with no peer tier each have no entry in the answer — one bad key
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
	code, entries := postLookup(t, srv, req)
	if code != http.StatusOK {
		t.Fatalf("batch with unservable keys: status %d", code)
	}
	if len(entries) != 0 {
		t.Fatalf("lookup invented %d entries for three unservable keys, the first %q", len(entries), entries[0].name)
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
		req := peerStatRequest{Objects: make([]storeRef, n)}
		for i := range req.Objects {
			req.Objects[i] = storeRef{Kind: kindRecord, Key: key}
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

// TestInstallOfferRefusals: a push whose spec key does not validate is
// 400 before any install is resolved, and an install the owner resolves
// for a valid spec key that does not fingerprint to the push's path — here
// the body carries the pytorch/2 install under another fingerprint, so
// the owner generates — is 409, not papered over.
func TestInstallOfferRefusals(t *testing.T) {
	svc := NewService(Config{Workers: 2, MaxSteps: 2})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for name, query := range map[string]string{
		"unknown framework": "framework=no-such&tail_libs=2",
		"negative tail":     "framework=pytorch&tail_libs=-1",
		"tail over bound":   fmt.Sprintf("framework=pytorch&tail_libs=%d", MaxTailLibs+1),
		"no tail":           "framework=pytorch",
	} {
		if code := putPeer(t, srv, "/v1/peer/install/x?"+query, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if g, f := installCounts(svc); g != 0 || f != 0 {
		t.Fatalf("malformed pushes generated %d installs and received %d", g, f)
	}

	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if code := pushWire(t, srv.URL, "not-a-real-fingerprint", bytes.NewReader(wireOf(t, in))); code != http.StatusConflict {
		t.Fatalf("fingerprint mismatch: status %d, want 409", code)
	}
	if g, f := installCounts(svc); g != 1 || f != 0 {
		t.Fatalf("a push under another fingerprint generated %d installs and received %d, want 1 and 0", g, f)
	}
	if got := svc.Counters.Get("peer.round_trips"); got != 0 {
		t.Fatalf("the owner made %d peer round trips", got)
	}
}

// putPeer PUTs body to a peer route and returns the status.
func putPeer(t *testing.T, srv *httptest.Server, path string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestPeerRoutesRequireCluster: the peer surface is node-to-node only —
// on a non-clustered node every peer route answers 404 so a standalone
// deployment exposes no install-transfer or object-transfer endpoints.
func TestPeerRoutesRequireCluster(t *testing.T) {
	svc := NewService(Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	if code := postPeer(t, srv, "/v1/peer/lookup-batch", peerBatchLookupRequest{}, nil); code != http.StatusNotFound {
		t.Fatalf("lookup-batch without a cluster: status %d, want 404", code)
	}
	if code := putPeer(t, srv, installPath("x", "req", "pytorch", 2), nil); code != http.StatusNotFound {
		t.Fatalf("install push without a cluster: status %d, want 404", code)
	}
	if g, f := installCounts(svc); g != 0 || f != 0 {
		t.Fatalf("a refused push generated %d installs and received %d", g, f)
	}
	if code := putPeer(t, srv, "/v1/peer/objects", castore.AppendEntry(nil, kindRecord, "deadbeef", castore.NewFrame([]byte("x")))); code != http.StatusNotFound {
		t.Fatalf("object push without a cluster: status %d, want 404", code)
	}
}

// pushBody PUTs a multi-object body to the objects route and returns the
// status and the per-object answer.
func pushBody(t *testing.T, srv *httptest.Server, body []byte) (int, []bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/peer/objects", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out peerObjectsResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out.Stored
}

// storeNode is a clustered one-node service with a store, behind its
// handler.
func storeNode(t *testing.T) (*castore.Store, *httptest.Server) {
	t.Helper()
	st, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc := NewService(Config{Workers: 1, Store: st})
	t.Cleanup(svc.Close)
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	t.Cleanup(srv.Close)
	return st, srv
}

// TestPeerObjectPutKinds: the objects route takes the replicated kinds —
// the memoized stages' records: record, profile, verify — and nothing
// else. One body mixes them with a library image ("lib"), the two objects
// a compact result was stored as before the record ("result" and
// "sparse") — all kinds an older build pushed — and a job manifest. Only
// the replicated kinds land, and the answer is aligned with the body's
// entries. The per-object route of older builds is no longer served.
func TestPeerObjectPutKinds(t *testing.T) {
	st, srv := storeNode(t)
	kinds := []string{"lib", kindRecord, "result", kindProfile, "sparse", kindVerify, kindJob}
	var body []byte
	for _, kind := range kinds {
		body = castore.AppendEntry(body, kind, "k-"+kind, castore.NewFrame([]byte("payload of "+kind)))
	}
	code, stored := pushBody(t, srv, body)
	if code != http.StatusOK {
		t.Fatalf("mixed body: status %d, want 200", code)
	}
	want := []bool{false, true, false, true, false, true, false}
	if !slices.Equal(stored, want) {
		t.Fatalf("answer %v, want %v (one per entry, in body order)", stored, want)
	}
	for i, kind := range kinds {
		if st.Has(kind, "k-"+kind) != want[i] {
			t.Errorf("%q: in store = %v, want %v", kind, !want[i], want[i])
		}
	}
	name := kindRecord + "/k-old"
	frame := castore.AppendEntry(nil, kindRecord, "k-old", castore.NewFrame([]byte("payload")))[2+len(name):]
	if code := putPeer(t, srv, "/v1/peer/objects/"+name, frame); code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
		t.Fatalf("the per-object route answered %d", code)
	}
	if st.Has(kindRecord, "k-old") {
		t.Fatal("a push to the per-object route landed")
	}
}

// TestPeerObjectsRefusesCorruptEntry: an entry whose payload fails its
// frame's sum is refused, never stored, and the answer says so; the
// entries around it land.
func TestPeerObjectsRefusesCorruptEntry(t *testing.T) {
	st, srv := storeNode(t)
	body := castore.AppendEntry(nil, kindRecord, "one", castore.NewFrame([]byte("first")))
	flip := len(body) + 2 + len(kindRecord+"/two") + 48 // the header
	body = castore.AppendEntry(body, kindRecord, "two", castore.NewFrame([]byte("second")))
	body = castore.AppendEntry(body, kindRecord, "three", castore.NewFrame([]byte("third")))
	body[flip] ^= 0x01
	code, stored := pushBody(t, srv, body)
	if code != http.StatusOK || !slices.Equal(stored, []bool{true, false, true}) {
		t.Fatalf("status %d, answer %v; want 200 and [true false true]", code, stored)
	}
	if st.Has(kindRecord, "two") || !st.Has(kindRecord, "one") || !st.Has(kindRecord, "three") {
		t.Fatal("only the corrupt entry may be missing")
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
	do := func(method, path string, body []byte, secret string) int {
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
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
	if code := do(http.MethodPost, "/v1/peer/lookup-batch", body, ""); code != http.StatusUnauthorized {
		t.Fatalf("no secret: status %d, want 401", code)
	}
	if code := do(http.MethodPost, "/v1/peer/lookup-batch", body, "wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong secret: status %d, want 401", code)
	}
	if code := do(http.MethodPost, "/v1/peer/lookup-batch", body, "ring-credential"); code != http.StatusOK {
		t.Fatalf("correct secret: status %d, want 200", code)
	}
	// An install push without the secret is refused before it is read;
	// with it, this one reaches validation (its framework is unknown).
	push := installPath("x", "req", "no-such", 2)
	if code := do(http.MethodPut, push, nil, ""); code != http.StatusUnauthorized {
		t.Fatalf("push without a secret: status %d, want 401", code)
	}
	if code := do(http.MethodPut, push, nil, "ring-credential"); code != http.StatusBadRequest {
		t.Fatalf("push with the secret: status %d, want 400", code)
	}

	// The cluster client carries the secret on its own requests: a peer
	// configured with the matching secret can call through Post ...
	peerOK := cluster.New("b", map[string]string{"a": srv.URL}, cluster.Options{Secret: "ring-credential"})
	if err := peerOK.Post(context.Background(), "a", "/v1/peer/lookup-batch", probe, nil); err != nil {
		t.Fatalf("peer with matching secret: %v", err)
	}
	// ... and one with no (or the wrong) secret is refused.
	peerBad := cluster.New("b", map[string]string{"a": srv.URL}, cluster.Options{})
	if err := peerBad.Post(context.Background(), "a", "/v1/peer/lookup-batch", probe, nil); err == nil {
		t.Fatal("peer without the secret was accepted")
	}
}
