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
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// BenchmarkPeerLookupBatch is one lookup-batch call per op on an in-process
// 3-node ring (R=2): node a runs the pytorch20 batch (the four CV/NLP
// members at 4 steps) cold, then each op asks a — which holds every value
// in memory — for all of that batch's detect, compact and verifyrun keys
// in one request, reads the answer and decodes its JSON. ns/op is the time
// per call, resp_B/call the response body per call, keys/call the keys it
// asks for.
func BenchmarkPeerLookupBatch(b *testing.B) {
	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 20})
	if err != nil {
		b.Fatal(err)
	}
	const steps = 4
	nodes := map[string]*testNode{}
	urls := map[string]string{}
	for _, id := range []string{"a", "b", "c"} {
		st, err := castore.Open(b.TempDir(), castore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		svc := NewService(Config{Workers: 2, MaxSteps: steps, Store: st})
		n := &testNode{id: id, svc: svc, srv: httptest.NewServer(NewHandler(svc)), store: st}
		defer n.close()
		nodes[id], urls[id] = n, n.srv.URL
	}
	for _, n := range nodes {
		n.svc.AttachCluster(cluster.New(n.id, urls, cluster.Options{ReplicaSets: 2, Timeout: 30 * time.Second}))
	}
	a := nodes["a"]
	res, err := a.svc.DebloatBatch(in, testWorkloads(b, in), BatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range nodes {
		n.svc.WaitReplication()
	}

	var keys []plan.Key
	for _, o := range res.Workloads {
		keys = append(keys, negativa.DetectKey(res.InstallFP, o.Identity))
	}
	for _, k := range res.libKeys {
		keys = append(keys, plan.Key{Stage: negativa.StageCompact, Hash: k})
	}
	keys = append(keys, verifyKeys(in, res, steps)...)
	req := peerBatchLookupRequest{Keys: make([]peerLookupRequest, len(keys))}
	for i, k := range keys {
		req.Keys[i] = peerLookupRequest{Stage: k.Stage, Hash: k.Hash}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}

	url := a.srv.URL + "/v1/peer/lookup-batch"
	var respBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		raw, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || r.StatusCode != http.StatusOK {
			b.Fatalf("lookup-batch: status %d, %v", r.StatusCode, err)
		}
		respBytes += int64(len(raw))
		var resp peerBatchLookupResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			b.Fatal(err)
		}
		for j, lr := range resp.Results {
			if !lr.Found {
				b.Fatalf("key %v not found on the node that computed it", keys[j])
			}
		}
	}
	b.ReportMetric(float64(respBytes)/float64(b.N), "resp_B/call")
	b.ReportMetric(float64(len(keys)), "keys/call")
}
