package dserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/fatbin"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// postPeerHeader is postPeer with an optional sparse-codec advertisement.
func postPeerHeader(t *testing.T, srv *httptest.Server, path string, in, out any, v2 bool) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if v2 {
		req.Header.Set(SparseCodecHeader, sparseCodecV2)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestPeerSparseCodecNegotiation drives every responder-side codec
// decision: a requester that does not advertise v2 gets v1 from the live
// cache, the disk tier, and the object route; an advertising requester gets
// v2 from all three, byte-equivalent after decoding; and a responder with
// DisableSparseWireV2 set ignores the advertisement entirely.
func TestPeerSparseCodecNegotiation(t *testing.T) {
	st, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	svc := NewService(Config{Workers: 2, MaxSteps: 2, Store: st})
	defer svc.Close()
	soloCluster(svc)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// A real compact result, planted in the live cache the way a local
	// compute leaves it.
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := WorkloadSpec{Model: "MobileNetV2", Batch: 1}
	wl, err := spec.Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := negativa.DetectUsage(wl, 2)
	if err != nil {
		t.Fatal(err)
	}
	libName := in.LibNames[0]
	lib := in.Library(libName)
	uf, uk := profile.UsedFuncs[libName], profile.UsedKernels[libName]
	archs := negativa.DeviceArchs(wl.Devices)
	key := negativa.CompactKey(negativa.LocateKey(lib, uf, uk, archs))
	ll, err := negativa.LocateLib(lib, uf, uk, archs)
	if err != nil {
		t.Fatal(err)
	}
	ld := negativa.CompactLocated(lib, ll, uf, uk)
	svc.Cache.Put(key.Hash, ld)

	// Lookup through both tiers. The live cache holds the computed result
	// (both codecs must decode to its image); crafted store entries under a
	// fresh key exercise the disk-tier transcode path.
	for _, v2 := range []bool{false, true} {
		var lr peerLookupResponse
		if code := postPeerHeader(t, srv, "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageCompact, Hash: key.Hash}, &lr, v2); code != http.StatusOK || !lr.Found {
			t.Fatalf("live lookup (v2=%v): status %d found %v", v2, code, lr.Found)
		}
		want := 1
		if v2 {
			want = 2
		}
		if got := negativa.SparseWireVersion(lr.Sparse); got != want {
			t.Fatalf("live lookup (v2=%v) answered codec v%d, want v%d", v2, got, want)
		}
		dec, ok := decodePeerResult(lib, lr.Result, lr.Sparse)
		if !ok {
			t.Fatalf("live lookup (v2=%v) did not decode", v2)
		}
		if !bytes.Equal(dec.Report.Sparse.Materialize(), ld.Report.Sparse.Materialize()) {
			t.Fatalf("live lookup (v2=%v) decodes to a different image", v2)
		}
	}
	diskSparse := negativa.NewSparseImage(lib, []fatbin.Range{{Start: 64, End: 4096}}).Encode()
	diskResult, err := json.Marshal(storedResult{Name: libName, LibDigest: digestHex(lib)})
	if err != nil {
		t.Fatal(err)
	}
	const diskKey = "feedfacedisk"
	if err := st.Put(kindResult, diskKey, diskResult); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(kindSparse, diskKey, diskSparse); err != nil {
		t.Fatal(err)
	}
	for _, v2 := range []bool{false, true} {
		var lr peerLookupResponse
		if code := postPeerHeader(t, srv, "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageCompact, Hash: diskKey}, &lr, v2); code != http.StatusOK || !lr.Found {
			t.Fatalf("disk lookup (v2=%v): status %d found %v", v2, code, lr.Found)
		}
		want := 1
		if v2 {
			want = 2
		}
		if got := negativa.SparseWireVersion(lr.Sparse); got != want {
			t.Fatalf("disk lookup (v2=%v) answered codec v%d, want v%d", v2, got, want)
		}
		if !v2 && !bytes.Equal(lr.Sparse, diskSparse) {
			t.Fatal("disk lookup altered the stored v1 bytes")
		}
	}

	// The object route: stored v1 streams as-is to a plain requester and
	// transcodes (with the response header set) for an advertising one.
	getObject := func(v2 bool) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/peer/objects/"+kindSparse+"/"+diskKey, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v2 {
			req.Header.Set(SparseCodecHeader, sparseCodecV2)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("object fetch (v2=%v) status %d", v2, resp.StatusCode)
		}
		return resp, body
	}
	resp, body := getObject(false)
	if resp.Header.Get(SparseCodecHeader) != "" {
		t.Fatal("plain object response must not carry the codec header")
	}
	payload, err := castore.Unframe(body)
	if err != nil || !bytes.Equal(payload, diskSparse) {
		t.Fatalf("plain object fetch did not round-trip (%v)", err)
	}
	resp, body = getObject(true)
	if resp.Header.Get(SparseCodecHeader) != sparseCodecV2 {
		t.Fatal("v2 object response must carry the codec header")
	}
	payload, err = castore.Unframe(body)
	if err != nil {
		t.Fatal(err)
	}
	if got := negativa.SparseWireVersion(payload); got != 2 {
		t.Fatalf("v2 object fetch carried codec v%d", got)
	}
	back, err := negativa.TranscodeSparseWire(payload, 1)
	if err != nil || !bytes.Equal(back, diskSparse) {
		t.Fatalf("v2 object payload does not transcode back to the stored bytes (%v)", err)
	}

	// A knob-disabled responder behaves like a pre-v2 node even when the
	// requester advertises.
	oldSvc := NewService(Config{Workers: 2, MaxSteps: 2, DisableSparseWireV2: true})
	defer oldSvc.Close()
	soloCluster(oldSvc)
	oldSrv := httptest.NewServer(NewHandler(oldSvc))
	defer oldSrv.Close()
	oldSvc.Cache.Put(key.Hash, ld)
	var or peerLookupResponse
	if code := postPeerHeader(t, oldSrv, "/v1/peer/lookup", peerLookupRequest{Stage: negativa.StageCompact, Hash: key.Hash}, &or, true); code != http.StatusOK || !or.Found {
		t.Fatalf("disabled-node lookup: status %d found %v", code, or.Found)
	}
	if got := negativa.SparseWireVersion(or.Sparse); got != 1 {
		t.Fatalf("disabled node answered codec v%d, want v1", got)
	}
}

// TestFetchPeerObjectSparseTranscode: a sparse object fetched over the
// v2-negotiated object route lands in the requester's store byte-identical
// to the exporter's canonical v1 bytes — the wire codec never leaks to disk.
func TestFetchPeerObjectSparseTranscode(t *testing.T) {
	stA, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	svcA := NewService(Config{Workers: 1, Store: stA})
	defer svcA.Close()
	soloCluster(svcA)
	srvA := httptest.NewServer(NewHandler(svcA))
	defer srvA.Close()

	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 1})
	if err != nil {
		t.Fatal(err)
	}
	lib := in.Library(in.LibNames[0])
	enc := negativa.NewSparseImage(lib, []fatbin.Range{{Start: 128, End: 8192}, {Start: 16384, End: 20000}}).Encode()
	if err := stA.Put(kindSparse, "cafef00d", enc); err != nil {
		t.Fatal(err)
	}

	stB, err := castore.Open(t.TempDir(), castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	svcB := NewService(Config{Workers: 1, Store: stB})
	defer svcB.Close()
	c := cluster.New("b", map[string]string{"a": srvA.URL}, cluster.Options{Timeout: 10 * time.Second})
	svcB.AttachCluster(c) // advertises the v2 codec on the transport

	n, err := svcB.FetchPeerObject(c, "a", kindSparse, "cafef00d")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(enc)) {
		t.Fatalf("stored %d bytes, want %d", n, len(enc))
	}
	got, ok := stB.Get(kindSparse, "cafef00d")
	if !ok || !bytes.Equal(got, enc) {
		t.Fatal("fetched sparse object is not byte-identical to the exporter's canonical form")
	}
	if rep := stB.Verify(); rep.Removed != 0 {
		t.Fatalf("requester store failed verification: %+v", rep)
	}
}

// TestClusterMixedCodecVersions is the cross-version interop test: a ring
// of two v2-capable nodes and one pre-v2 stand-in (DisableSparseWireV2).
// A batch computed on one new node is then served to the old node (v1-only
// requests against v2-capable owners) and to the other new node (v2
// advertisements answered in v1 by the old owner) with no local analysis
// and byte-identical libraries — every mixed pairing degrades cleanly to v1.
func TestClusterMixedCodecVersions(t *testing.T) {
	nodes := startClusterCfg(t, func(id string, cfg *Config) {
		cfg.DisableSparseWireV2 = id == "old"
	}, "new", "new2", "old")
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()
	nw := nodes["new"]

	req := JobRequest{
		Framework: "pytorch",
		TailLibs:  8,
		Workloads: []WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "Transformer", Batch: 32, Device: "A100"},
		},
		MaxSteps: 2,
	}

	// The first new node computes; detect stages owned elsewhere execute
	// there, and every result is written back to its owners.
	stNew := postJob(t, nw.srv, req)
	doneNew := pollDone(t, nw.srv, stNew.ID)
	if doneNew.State != JobDone {
		t.Fatalf("job on new node failed: %s", doneNew.Error)
	}
	if doneNew.Verified == nil || !*doneNew.Verified {
		t.Fatal("new-node batch must verify")
	}
	nw.svc.WaitReplication()
	var repNew jobReport
	if code := getJSON(t, nw.srv.URL+"/v1/jobs/"+stNew.ID+"/report", &repNew); code != http.StatusOK {
		t.Fatalf("new-node report status %d", code)
	}

	// The other two resubmit: pure reuse, through their own replicas of
	// what they own and peer reads across the codec boundary for the rest.
	for _, id := range []string{"old", "new2"} {
		n := nodes[id]
		analysisBefore := n.svc.Counters.Get("analysis.computed")
		st := postJob(t, n.srv, req)
		done := pollDone(t, n.srv, st.ID)
		if done.State != JobDone {
			t.Fatalf("job on %s node failed: %s", id, done.Error)
		}
		if done.Verified == nil || !*done.Verified {
			t.Fatalf("%s-node batch must verify", id)
		}
		if delta := n.svc.Counters.Get("analysis.computed") - analysisBefore; delta != 0 {
			t.Fatalf("%s node recomputed %d stages; the mixed ring should have served them", id, delta)
		}
		if n.svc.Counters.Get("peer.hits") == 0 {
			t.Fatalf("%s node read nothing through its peers", id)
		}
		for _, lr := range repNew.Libs {
			want := fetchPeerJobLib(t, nw.srv, stNew.ID, lr.Name)
			got := fetchPeerJobLib(t, n.srv, st.ID, lr.Name)
			if !bytes.Equal(want, got) {
				t.Fatalf("library %s on %s differs across codec versions", lr.Name, id)
			}
		}
	}
}
