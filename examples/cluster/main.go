// Example cluster runs a 3-node sharded serving plane in one process:
// three full dserve services, each with its own persistent castore and
// loopback HTTP listener, joined by a consistent-hash ring. It then shows
// the cluster's three behaviors end to end:
//
//  1. Node A computes a batch — detect stages execute on (and are
//     memoized by) their owning shards, which pull A's install instead of
//     generating their own, locate/compact run on A where the library
//     images are, and write-back replication pushes every result to the
//     owners of its key.
//  2. The same batch submitted to node B completes with zero local
//     locate/compact: what B owns is already on its disk, the rest reads
//     through to its owners (peer.hits) and lands in B's own castore.
//  3. Node C is killed; a fresh batch still completes — the ring shrinks
//     and C-owned stages fall back to local compute (peer.fallbacks).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/dserve"
)

type node struct {
	id   string
	base string
	svc  *dserve.Service
	stop func()
}

// startNode boots one cluster member: service + castore + HTTP listener.
func startNode(id string) *node {
	dataDir, err := os.MkdirTemp("", "negativa-"+id+"-*")
	if err != nil {
		log.Fatal(err)
	}
	store, err := castore.Open(dataDir, castore.Options{MaxBytes: 256 << 20})
	if err != nil {
		log.Fatal(err)
	}
	svc := dserve.NewService(dserve.Config{Workers: 4, MaxSteps: 4, Store: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: dserve.NewHandler(svc)}
	go hs.Serve(ln)
	return &node{
		id:   id,
		base: "http://" + ln.Addr().String(),
		svc:  svc,
		// hs.Close (not just ln.Close) so established keep-alive
		// connections die with the node — peers must see a dead socket,
		// like a real process kill, not a half-alive server answering
		// over pooled connections.
		stop: func() {
			hs.Close()
			svc.Close()
			store.Close()
			os.RemoveAll(dataDir)
		},
	}
}

func postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runBatch submits a batch to a node and polls it to completion.
func runBatch(n *node, req dserve.JobRequest) (id string, wall time.Duration) {
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	start := time.Now()
	if err := postJSON(n.base+"/v1/jobs", req, &st); err != nil {
		log.Fatal(err)
	}
	for st.State != "done" && st.State != "failed" {
		time.Sleep(5 * time.Millisecond)
		if err := getJSON(n.base+"/v1/jobs/"+st.ID, &st); err != nil {
			log.Fatal(err)
		}
	}
	if st.State == "failed" {
		log.Fatalf("job on node %s failed: %s", n.id, st.Error)
	}
	return st.ID, time.Since(start)
}

// printInstalls shows how each node came by its installs: the node a
// client submitted a spec to generates it; an owner that executed a detect
// for it fetched the requester's copy (one library per object), and its
// own batch of the same spec then finds it resident.
func printInstalls(nodes []*node) {
	for _, n := range nodes {
		fmt.Printf("  node %s installs: generated %d, fetched %d (%d libraries), served to peers %d\n",
			n.id, n.svc.Counters.Get("installs.generated"), n.svc.Counters.Get("installs.fetched"),
			n.svc.Counters.Get("peer.objects_fetched"), n.svc.Counters.Get("peer.served_installs"))
	}
}

func main() {
	// Boot three nodes, then join them into one ring. Every node gets the
	// same peer list; its own entry is ignored — exactly how a symmetric
	// production deployment passes one -peers flag to negativa-served.
	nodes := []*node{startNode("a"), startNode("b"), startNode("c")}
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	peers := map[string]string{}
	for _, n := range nodes {
		peers[n.id] = n.base
	}
	for _, n := range nodes {
		n.svc.AttachCluster(cluster.New(n.id, peers, cluster.Options{
			Counters: n.svc.Counters,
			Timings:  n.svc.Timings,
		}))
	}
	a, b, c := nodes[0], nodes[1], nodes[2]
	fmt.Printf("3-node ring: a=%s b=%s c=%s\n\n", a.base, b.base, c.base)

	req := dserve.JobRequest{
		Framework: "pytorch",
		TailLibs:  20,
		Workloads: []dserve.WorkloadSpec{
			{Model: "MobileNetV2", Batch: 1},
			{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
			{Model: "Transformer", Batch: 32, Device: "A100"},
			{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
		},
		MaxSteps: 4,
	}

	// ---- 1. Cold batch on node A: detects execute on their owning shards,
	// compacts run here and replicate to their owners in the background.
	idA, wallA := runBatch(a, req)
	a.svc.WaitReplication()
	fmt.Printf("node a: cold batch %s in %v\n", idA, wallA.Round(time.Millisecond))
	fmt.Printf("  remote detects issued by a: %d (local locate+compact: %d, objects written back: %d)\n",
		a.svc.Counters.Get("peer.remote_execs"), a.svc.Counters.Get("analysis.computed"),
		a.svc.Counters.Get("peer.replica_writes"))
	for _, n := range []*node{b, c} {
		fmt.Printf("  node %s as owning shard: executed %d detects, received %d replicated objects\n",
			n.id, n.svc.Counters.Get("peer.executed_detects"), n.svc.Counters.Get("peer.objects_received"))
	}

	// ---- 2. Same batch on node B: pure cluster reuse.
	analysisBefore := b.svc.Counters.Get("analysis.computed")
	idB, wallB := runBatch(b, req)
	fmt.Printf("\nnode b: same batch %s in %v\n", idB, wallB.Round(time.Millisecond))
	fmt.Printf("  peer.hits=%d peer.misses=%d local analysis this batch=%d (0 = fully absorbed)\n",
		b.svc.Counters.Get("peer.hits"), b.svc.Counters.Get("peer.misses"),
		b.svc.Counters.Get("analysis.computed")-analysisBefore)
	fmt.Printf("  b's castore now holds %d objects (read-through replicates toward demand)\n",
		b.svc.Store().Stats().Objects)
	printInstalls(nodes)

	// ---- 3. Kill node C: the ring degrades, batches keep completing.
	c.stop()
	nodes = nodes[:2]
	fresh := req
	fresh.Framework = "tensorflow" // new install → every stage key is fresh
	idA2, wallA2 := runBatch(a, fresh)
	fmt.Printf("\nnode a after killing c: fresh batch %s in %v\n", idA2, wallA2.Round(time.Millisecond))
	fmt.Printf("  peer.fallbacks=%d ring=%v\n",
		a.svc.Counters.Get("peer.fallbacks"), a.svc.Cluster().Nodes())

	var metrics struct {
		Peer map[string]any `json:"peer"`
	}
	if err := getJSON(a.base+"/v1/metrics", &metrics); err != nil {
		log.Fatal(err)
	}
	out, _ := json.MarshalIndent(metrics.Peer, "  ", "  ")
	fmt.Printf("\nnode a /v1/metrics peer section:\n  %s\n", out)
}
