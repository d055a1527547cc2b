package dserve

import (
	"bytes"
	"context"
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

// BenchmarkPeerLookupBatch is one lookup-batch call on an in-process
// 3-node ring (R=2): node a runs the pytorch20 batch (the four CV/NLP
// members at 4 steps) cold, then each op asks a — which holds every value
// in memory and on disk — for all of that batch's detect, compact and
// verifyrun keys in one request. It times the call's two sides apart and
// whole:
//
//   - handler: a's handler alone — the request's decode, every record
//     exported from its segment, the answer framed and written;
//   - decode: the requester's read of that answer — the entry reader,
//     each frame's sum, and every record opened under its key, as the
//     prefetch does;
//   - call: node b's whole exchange through its cluster transport — the
//     request's encode, the loopback round trip with a's handler, and the
//     decode above.
//
// resp_B/call is the answer's body, keys/call the keys asked.
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

	var items []prefetchItem
	for _, o := range res.Workloads {
		items = append(items, prefetchItem{key: negativa.DetectKey(res.InstallFP, o.Identity)})
	}
	for i, k := range res.libKeys {
		items = append(items, prefetchItem{key: plan.Key{Stage: negativa.StageCompact, Hash: k}, hint: res.Libs[i].Sparse.Lib()})
	}
	for _, k := range verifyKeys(in, res, steps) {
		items = append(items, prefetchItem{key: k})
	}
	req := peerBatchLookupRequest{Keys: make([]peerLookupRequest, len(items))}
	for i, it := range items {
		req.Keys[i] = peerLookupRequest{Stage: it.key.Stage, Hash: it.key.Hash}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	// decode opens every record of an answer, as the prefetch does.
	decode := func(b *testing.B, answer io.Reader) {
		recs, err := readLookupAnswer(answer, items)
		if err != nil {
			b.Fatal(err)
		}
		for j, rec := range recs {
			it := items[j]
			if rec == nil {
				b.Fatalf("key %v not found on the node that computed it", it.key)
			}
			if _, err := memoStageOf(it.key.Stage).open(it.key.Hash, it.hint, rec); err != nil {
				b.Fatal(err)
			}
		}
	}

	var answer []byte
	b.Run("handler", func(b *testing.B) {
		w := &answerWriter{header: http.Header{}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.body.Reset()
			a.svc.handlePeerLookupBatch(w, httptest.NewRequest(http.MethodPost, "/v1/peer/lookup-batch", bytes.NewReader(body)))
			if w.status != http.StatusOK {
				b.Fatalf("lookup-batch: status %d", w.status)
			}
		}
		answer = append([]byte(nil), w.body.Bytes()...)
		b.ReportMetric(float64(len(answer)), "resp_B/call")
		b.ReportMetric(float64(len(items)), "keys/call")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decode(b, bytes.NewReader(answer))
		}
	})
	b.Run("call", func(b *testing.B) {
		c := nodes["b"].svc.Cluster()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			err := c.Post(context.Background(), "a", "/v1/peer/lookup-batch", req, func(r io.Reader) error {
				decode(b, r)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// answerWriter is the handler benchmark's http.ResponseWriter: it keeps
// the status and the body, reused across calls.
type answerWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *answerWriter) Header() http.Header         { return w.header }
func (w *answerWriter) WriteHeader(status int)      { w.status = status }
func (w *answerWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
