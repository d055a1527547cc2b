package negativaml

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4). Each benchmark regenerates its artifact through the
// experiment suite and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The rendered rows are printed by
// cmd/experiments; EXPERIMENTS.md records paper-vs-measured per cell.

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/dserve"
	"negativaml/internal/experiments"
	"negativaml/internal/gateway"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
)

// benchJSON enables the machine-readable benchmark mode:
//
//	go test -run TestBenchServeJSON -bench.json BENCH_serve.json
//
// writes key end-to-end timings (serve batch wall times cold / warm /
// warm-from-disk after a restart, serial vs parallel, and the virtual
// Table 8 headline) so future PRs have a perf trajectory.
var benchJSON = flag.String("bench.json", "", "write end-to-end serve timings to this JSON file")

// The suite caches installs and pipeline results across benchmarks, exactly
// as the paper reuses one profiled run per workload across its tables.
var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() { suite = experiments.NewSuite() })
	return suite
}

// BenchmarkFigure1 regenerates the CPU/GPU code split of the top-4 PyTorch
// libraries (Figure 1). Metric: GPU share of the largest library.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GPUPct, "gpu-share-%")
	}
}

// BenchmarkTable2 regenerates the ten-workload reduction table (Table 2).
// Metrics: mean GPU and CPU code reductions across workloads.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		var gpu, cpu float64
		for _, r := range rows {
			gpu += r.GPURedPct
			cpu += r.CPURedPct
		}
		b.ReportMetric(gpu/float64(len(rows)), "gpu-red-%")
		b.ReportMetric(cpu/float64(len(rows)), "cpu-red-%")
	}
}

// BenchmarkFigure5 regenerates the per-library reduction distributions.
// Metric: median CPU-code size reduction (the paper's ~25%).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Figure5(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.CPUSizeRed.P50, "cpu-red-median-%")
		b.ReportMetric(d.GPUSizeRed.P50, "gpu-red-median-%")
	}
}

// BenchmarkFigure6 regenerates the Pareto chart. Metric: reduction share of
// the top 10% of libraries (the paper's ~90%).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Figure6(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.Top10PctSharePct, "top10pct-share-%")
		b.ReportMetric(d.Top8SharePct, "top8-share-%")
	}
}

// BenchmarkTable3 regenerates the core-library table. Metric: torch_cuda
// function-count reduction (the paper's 93%).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FuncRedPct, "funcs-red-%")
	}
}

// BenchmarkTable4 regenerates the torch_cuda Jaccard matrix. Metrics: mean
// function and kernel similarity (paper: functions high, kernels low).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table4(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		var fs, ks float64
		for _, c := range t.Cells {
			fs += c.FuncSim
			ks += c.KernelSim
		}
		n := float64(len(t.Cells))
		b.ReportMetric(fs/n, "func-jaccard")
		b.ReportMetric(ks/n, "kernel-jaccard")
	}
}

// BenchmarkTable9 regenerates the tensorflow_cc Jaccard matrix (appendix).
func BenchmarkTable9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table9(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		var ks float64
		for _, c := range t.Cells {
			ks += c.KernelSim
		}
		b.ReportMetric(ks/float64(len(t.Cells)), "kernel-jaccard")
	}
}

// BenchmarkFigure7 regenerates the removal-reason split. Metric: mean
// Reason I share (the paper's ~80-89%).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure7(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		var r1 float64
		for _, r := range rows {
			r1 += r.ReasonIPct
		}
		b.ReportMetric(r1/float64(len(rows)), "reason1-%")
	}
}

// BenchmarkTable5 regenerates the runtime-performance table. Metric: mean
// execution-time reduction.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		_, _, exec := experiments.Table5Averages(rows)
		b.ReportMetric(exec.Seconds(), "avg-time-saved-s")
	}
}

// BenchmarkTable6 regenerates the H100 eager/lazy size table.
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table6(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GPURedPct, "gpu-red-%")
	}
}

// BenchmarkTable7 regenerates the H100 eager/lazy runtime table.
func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table7(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].CPURedPct, "eager-cpu-red-%")
		b.ReportMetric(rows[2].CPURedPct, "lazy-cpu-red-%")
	}
}

// BenchmarkTable8 regenerates the end-to-end debloating times. Metric:
// PyTorch/Train/MobileNetV2 end-to-end seconds (the paper's 651 s).
func BenchmarkTable8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table8(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].EndToEnd.Seconds(), "mobilenet-e2e-s")
	}
}

// BenchmarkOverhead regenerates the §4.6 tracer-overhead comparison.
// Metrics: detector and NSys overhead percentages (paper: 41% and 126%).
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Overhead(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.DetectorPct, "detector-overhead-%")
		b.ReportMetric(d.NSysPct, "nsys-overhead-%")
	}
}

// BenchmarkTable10 regenerates the 8xA100 LLM-zoo table. Metric: mean
// element-count reduction (lower than single-GPU, as in the paper).
func BenchmarkTable10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table10(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		var el float64
		for _, r := range rows {
			el += r.Row.ElemRedPct
		}
		b.ReportMetric(el/float64(len(rows)), "elem-red-%")
	}
}

// BenchmarkAblation regenerates the retention-granularity ablation
// (DESIGN.md): whole-cubin retention keeps more bytes but preserves
// GPU-launching kernels; exact-kernel removal breaks the workload.
func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.Ablation(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		if !d.WholeCubinVerifies || d.ExactVerifies {
			b.Fatal("ablation outcome flipped")
		}
		b.ReportMetric(d.WholeCubinKeptKB-d.ExactKeptKB, "extra-kept-KB")
	}
}

// BenchmarkCoverage regenerates the detection-coverage saturation curve.
// Metric: steps needed for full coverage (should be tiny).
func BenchmarkCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.CoverageSaturation(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pts[len(pts)-1].Kernels), "kernels")
	}
}

// BenchmarkUsedBloat regenerates the §5 used-bloat comparison. Metric:
// TensorFlow's init-only function count (the paper's hypothesized excess).
func BenchmarkUsedBloat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.UsedBloat(sharedSuite())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].InitOnly), "tf-init-only-funcs")
		b.ReportMetric(100*rows[1].Fraction, "tf-usedbloat-%")
	}
}

// TestBenchServeJSON emits the batch-serve perf trajectory when -bench.json
// is set (skipped otherwise): wall times for a cold 4-workload batch at 1
// worker and at full width, a warm repeat (registry + cache absorbing all
// work), and the batch's virtual end-to-end debloating time.
func TestBenchServeJSON(t *testing.T) {
	if *benchJSON == "" {
		t.Skip("-bench.json not set")
	}

	in, err := mlframework.Generate(mlframework.Config{Framework: mlframework.PyTorch, TailLibs: 20})
	if err != nil {
		t.Fatal(err)
	}
	specs := []dserve.WorkloadSpec{
		{Model: "MobileNetV2", Batch: 1},
		{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
		{Model: "Transformer", Batch: 32, Device: "A100"},
		{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
	}
	workloads := func() []mlruntime.Workload {
		ws := make([]mlruntime.Workload, len(specs))
		for i, sp := range specs {
			w, err := sp.Workload(in)
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		return ws
	}

	// batch runs one 4-workload batch and reports wall time plus heap bytes
	// allocated during the batch (TotalAlloc delta across a quiesced heap) —
	// the metric that exposes per-batch full-image copies.
	batch := func(workers int, svc *dserve.Service) (*dserve.BatchResult, time.Duration, int64) {
		if svc == nil {
			svc = dserve.NewService(dserve.Config{Workers: workers, MaxSteps: 4})
			defer svc.Close()
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := svc.DebloatBatch(in, workloads(), dserve.BatchOptions{MaxSteps: 4})
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&m1)
		if !res.AllVerified() {
			t.Fatal("batch must verify")
		}
		return res, wall, int64(m1.TotalAlloc - m0.TotalAlloc)
	}

	_, serialWall, _ := batch(1, nil)
	svc := dserve.NewService(dserve.Config{MaxSteps: 4})
	defer svc.Close()
	cold, coldWall, coldAlloc := batch(0, svc)
	warm, warmWall, warmAlloc := batch(0, svc)
	if warm.CacheHits == 0 || warm.ProfileReuses != len(specs) {
		t.Fatalf("warm batch should be fully reused: hits=%d reuses=%d", warm.CacheHits, warm.ProfileReuses)
	}

	// Incremental re-submit: extend the warm batch with a fifth workload
	// whose profile is already registered (solo batch below, untimed). The
	// superset batch then performs zero detection runs, absorbs untouched
	// libraries through unchanged stage keys, and carries the base
	// members' verifications over — only the fresh member re-verifies, so
	// it beats even the warm path's full re-verification.
	extraSpec := dserve.WorkloadSpec{Model: "MobileNetV2", Batch: 8}
	extraW, err := extraSpec.Workload(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DebloatBatch(in, []mlruntime.Workload{extraW}, dserve.BatchOptions{MaxSteps: 4}); err != nil {
		t.Fatal(err)
	}
	incWorkloads := append(workloads(), extraW)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	incStart := time.Now()
	inc, err := svc.DebloatBatch(in, incWorkloads, dserve.BatchOptions{MaxSteps: 4, Base: warm, BaseID: "bench-warm"})
	if err != nil {
		t.Fatal(err)
	}
	incWall := time.Since(incStart)
	runtime.ReadMemStats(&m1)
	incAlloc := int64(m1.TotalAlloc - m0.TotalAlloc)
	if !inc.AllVerified() {
		t.Fatal("incremental batch must verify")
	}
	if inc.ProfileReuses != len(specs)+1 {
		t.Fatalf("incremental batch ran detection: reuses=%d want %d", inc.ProfileReuses, len(specs)+1)
	}
	if inc.Incremental == nil || inc.Incremental.CarriedVerifications != len(specs) {
		t.Fatalf("incremental batch must carry the base verifications: %+v", inc.Incremental)
	}

	// Warm-from-disk: populate a data dir with one service, then boot a
	// fresh one against it — the restart path. Its memory tiers start
	// empty, so everything comes from the content-addressed store: no
	// detection, no locate/compact.
	dir := t.TempDir()
	store1, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svcDisk1 := dserve.NewService(dserve.Config{MaxSteps: 4, Store: store1})
	batch(0, svcDisk1)
	svcDisk1.Close()
	store1.Close()
	store2, err := castore.Open(dir, castore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	svcDisk2 := dserve.NewService(dserve.Config{MaxSteps: 4, Store: store2})
	defer svcDisk2.Close()
	warmDisk, warmDiskWall, warmDiskAlloc := batch(0, svcDisk2)
	if warmDisk.CacheMisses != 0 || warmDisk.ProfileReuses != len(specs) {
		t.Fatalf("warm-disk batch should be fully restored: misses=%d reuses=%d", warmDisk.CacheMisses, warmDisk.ProfileReuses)
	}
	if n := svcDisk2.Counters.Get("analysis.computed"); n != 0 {
		t.Fatalf("warm-disk batch ran locate/compact %d times", n)
	}
	diskStats := store2.Stats()

	// Cluster path: a 3-node in-process ring. Node A's cold batch executes
	// detect stages on their owning shards, computes locate+compact itself
	// and writes the results back to their owners; node B's repeat of the
	// same batch is peer-warm — all analysis arrives through the peer tier
	// (read-through, or the replicas write-back left on B's own disk), zero
	// local locate/compact.
	type benchNode struct {
		svc  *dserve.Service
		srv  *httptest.Server
		stop func()
	}
	startNode := func(id string) *benchNode {
		st, err := castore.Open(t.TempDir(), castore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		svc := dserve.NewService(dserve.Config{MaxSteps: 4, Store: st})
		srv := httptest.NewServer(dserve.NewHandler(svc))
		return &benchNode{svc: svc, srv: srv, stop: func() { srv.Close(); svc.Close(); st.Close() }}
	}
	buildRing := func() (map[string]*benchNode, map[string]string) {
		nodes := map[string]*benchNode{"a": startNode("a"), "b": startNode("b"), "c": startNode("c")}
		urls := map[string]string{}
		for id, n := range nodes {
			urls[id] = n.srv.URL
		}
		for id, n := range nodes {
			n.svc.AttachCluster(cluster.New(id, urls, cluster.Options{
				Counters: n.svc.Counters, Timings: n.svc.Timings,
			}))
		}
		return nodes, urls
	}
	var nodes map[string]*benchNode
	var urls map[string]string
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
	}()
	clusterBatch := func(n *benchNode) time.Duration {
		body, err := json.Marshal(dserve.JobRequest{
			Framework: "pytorch", TailLibs: 20, MaxSteps: 4,
			Workloads: []dserve.WorkloadSpec{
				{Model: "MobileNetV2", Batch: 1},
				{Model: "MobileNetV2", Train: true, Batch: 16, Epochs: 1},
				{Model: "Transformer", Batch: 32, Device: "A100"},
				{Model: "Transformer", Train: true, Batch: 128, Epochs: 1},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Pre-warm the client's connection to this node (drain so the
		// transport pools it): the metric tracks peer-warm serving cost,
		// not one-time TCP and transport-pool setup.
		if resp, err := http.Get(n.srv.URL + "/v1/jobs"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		start := time.Now()
		resp, err := http.Post(n.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		job, err := n.svc.WaitJob(st.ID, 2*time.Minute)
		if err != nil || job.State != dserve.JobDone {
			t.Fatalf("cluster bench job: %v (state %s, err %q)", err, job.State, job.Err)
		}
		return time.Since(start)
	}
	// Same measurement hygiene as the incremental batch above: the earlier
	// phases left a large retained heap, and a GC cycle landing inside a
	// single-shot wall measurement would be charged to the cluster.
	// The cold wall is inherently single-shot per ring (a ring is only cold
	// once), so it is measured as the minimum over three independent fresh
	// rings; the last ring carries the peer-warm and churn phases below.
	// B and C are symmetric peer-warm nodes after A's cold batch (each holds
	// its shard from write-back and reads the rest through peers), so
	// both give an honest sample of the same quantity; the minimum is the
	// standard way to strip scheduler and disk noise from single-shot walls.
	clusterColdWall := time.Duration(1<<63 - 1)
	clusterWarmWall := time.Duration(1<<63 - 1)
	var peerWarmRoundTrips int64
	for ring := 0; ring < 3; ring++ {
		for _, n := range nodes {
			n.stop()
		}
		nodes, urls = buildRing()
		runtime.GC()
		if w := clusterBatch(nodes["a"]); w < clusterColdWall {
			clusterColdWall = w
		}
		nodes["a"].svc.WaitReplication()
		for _, id := range []string{"b", "c"} {
			n := nodes[id]
			analysisBefore := n.svc.Counters.Get("analysis.computed")
			rtBefore := n.svc.Counters.Get("peer.round_trips")
			runtime.GC()
			w := clusterBatch(n)
			if d := n.svc.Counters.Get("analysis.computed") - analysisBefore; d != 0 {
				t.Fatalf("peer-warm cluster batch on %s ran %d local locate/compacts", id, d)
			}
			rt := n.svc.Counters.Get("peer.round_trips") - rtBefore
			if rt > 8 {
				t.Fatalf("peer-warm batch on %s took %d peer round trips; batching should need at most 8", id, rt)
			}
			if id == "b" {
				peerWarmRoundTrips = rt
			}
			if w < clusterWarmWall {
				clusterWarmWall = w
			}
		}
	}
	// Batched scatter-gather bound: two prefetch phases (detect keys, then
	// compact keys once the union fixes them), each at most one lookup-batch
	// per distinct replica-set group — with 3 nodes and R=2 a requester sees
	// at most 3 remote groups — plus a hedge or two. The per-key path this
	// replaced paid one round trip per peer-served stage key (15 in this
	// harness, see peer_warm/peer-hits).
	if peerWarmRoundTrips > 8 {
		t.Fatalf("peer-warm batch took %d peer round trips; batching should need at most 8", peerWarmRoundTrips)
	}
	peerHits := nodes["b"].svc.Counters.Get("peer.hits")
	remoteExecs := nodes["a"].svc.Counters.Get("peer.remote_execs")
	if peerHits == 0 {
		t.Fatal("peer-warm cluster batch hit no peers")
	}

	// Node churn: kill node c, drop it from the survivors' rings (the
	// failure-detection outcome, taken directly so the measurement isn't
	// padded with probe timeouts), and boot an empty replacement that
	// joins the ring. The survivors' anti-entropy sweeps heal it in
	// place; recorded are the heal wall time (join → a full sweep streams
	// nothing), the objects streamed, and the healed node's wall for the
	// same batch — which must run zero local analysis, because every
	// artifact it owns arrived through repair and the rest reads through
	// its peers.
	for _, n := range nodes {
		n.svc.WaitReplication()
	}
	nodes["c"].stop()
	delete(nodes, "c")
	for _, id := range []string{"a", "b"} {
		nodes[id].svc.Cluster().RemovePeer("c")
	}
	healStart := time.Now()
	repl := startNode("d")
	nodes["d"] = repl
	repl.svc.AttachCluster(cluster.New("d",
		map[string]string{"a": urls["a"], "b": urls["b"], "d": repl.srv.URL},
		cluster.Options{Counters: repl.svc.Counters, Timings: repl.svc.Timings}))
	if n := repl.svc.Cluster().Join(); n == 0 {
		t.Fatal("replacement node join: no survivor acknowledged")
	}
	for {
		moved := nodes["a"].svc.RepairNow() + nodes["b"].svc.RepairNow()
		if moved == 0 {
			break
		}
		if time.Since(healStart) > 2*time.Minute {
			t.Fatal("repair did not converge on the replacement node")
		}
	}
	healWall := time.Since(healStart)
	churnStreamed := nodes["a"].svc.Counters.Get("repair.objects_streamed") +
		nodes["b"].svc.Counters.Get("repair.objects_streamed")
	if churnStreamed == 0 {
		t.Fatal("healing an empty replacement streamed no objects")
	}
	runtime.GC()
	churnAnalysisBefore := repl.svc.Counters.Get("analysis.computed")
	churnPostWall := clusterBatch(repl)
	if d := repl.svc.Counters.Get("analysis.computed") - churnAnalysisBefore; d != 0 {
		t.Fatalf("healed replacement ran %d local locate/compacts", d)
	}

	// Gateway front door: the sustained-load storm from internal/gateway at
	// full scale — thousands of concurrent submissions in a hostile mix of
	// duplicates, supersets, and garbage across three tenants (one with a
	// tight concurrency quota, so shedding is exercised) and both lanes,
	// against a dispatch width that exceeds the backend's in-flight cap.
	// Recorded: end-to-end job latency (p50/p99), shed and coalesce rates,
	// and the analysis-compute delta (must stay 0 — duplicates must
	// coalesce or hit memo tiers, never recompute).
	gwSvc := dserve.NewService(dserve.Config{MaxSteps: 2, MaxInFlight: 4})
	defer gwSvc.Close()
	gwSubmits, gwConc := 2000, 64
	gw, err := gateway.New(gwSvc, gateway.Config{DispatchSlots: 8, QueueDepth: 4 * gwSubmits, MaxJobs: 4 * gwSubmits}, []gateway.TenantConfig{
		{Name: "acme", Keys: []string{"bench-acme"}},
		{Name: "beta", Keys: []string{"bench-beta"}, Lane: gateway.LaneBulk},
		{Name: "capped", Keys: []string{"bench-capped"}, Quota: gateway.QuotaConfig{MaxConcurrent: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	gwSrv := httptest.NewServer(gateway.NewHandler(gw, dserve.NewHandler(gwSvc)))
	defer gwSrv.Close()
	gwCfg := gateway.LoadConfig{
		BaseURL:      gwSrv.URL,
		Keys:         []string{"bench-acme", "bench-beta", "bench-capped"},
		Lanes:        []string{"", gateway.LaneInteractive, gateway.LaneBulk},
		Submits:      gwSubmits,
		Concurrency:  gwConc,
		Distinct:     3,
		GarbageEvery: 10,
		TailLibs:     8,
		MaxSteps:     2,
		JobTimeout:   3 * time.Minute,
	}
	gwWarm := gwCfg
	gwWarm.Submits, gwWarm.Concurrency, gwWarm.GarbageEvery = gwCfg.Distinct, gwCfg.Distinct, 0
	gwWarm.Keys = []string{"bench-acme"}
	if rep, err := gateway.RunLoad(gwWarm); err != nil || rep.Completed != gwCfg.Distinct {
		t.Fatalf("gateway warmup: %+v err=%v", rep, err)
	}
	gwComputedBefore := gwSvc.Counters.Get("analysis.computed")
	gwRep, err := gateway.RunLoad(gwCfg)
	if err != nil {
		t.Fatal(err)
	}
	if gwRep.FailedAccepted != 0 || gwRep.Unexpected != 0 || gwRep.ShedMissingRetryAfter != 0 {
		t.Fatalf("gateway storm broke the admission promise: %+v", gwRep)
	}
	gwComputedDelta := gwSvc.Counters.Get("analysis.computed") - gwComputedBefore

	entries := []experiments.BenchEntry{
		{Name: "serve/batch4/cold/serial-wall", Value: serialWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/batch4/cold/parallel-wall", Value: coldWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/batch4/warm/parallel-wall", Value: warmWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/batch4/incremental/parallel-wall", Value: incWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/batch4/incremental/alloc-bytes", Value: float64(incAlloc), Unit: "bytes"},
		{Name: "serve/batch4/incremental/absorbed-libs", Value: float64(inc.Incremental.AbsorbedLibs), Unit: "count"},
		{Name: "serve/batch4/incremental/delta-libs", Value: float64(inc.Incremental.DeltaLibs), Unit: "count"},
		{Name: "serve/batch4/incremental/carried-verifications", Value: float64(inc.Incremental.CarriedVerifications), Unit: "count"},
		{Name: "serve/batch4/warm_disk/parallel-wall", Value: warmDiskWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/batch4/cold/alloc-bytes", Value: float64(coldAlloc), Unit: "bytes"},
		{Name: "serve/batch4/warm/alloc-bytes", Value: float64(warmAlloc), Unit: "bytes"},
		{Name: "serve/batch4/warm_disk/alloc-bytes", Value: float64(warmDiskAlloc), Unit: "bytes"},
		{Name: "serve/batch4/warm_disk/store-hits", Value: float64(diskStats.Hits), Unit: "count"},
		{Name: "serve/batch4/warm_disk/store-bytes", Value: float64(diskStats.Bytes), Unit: "bytes"},
		{Name: "serve/batch4/virtual-end-to-end", Value: cold.EndToEnd().Seconds(), Unit: "s"},
		{Name: "serve/batch4/virtual-detect", Value: cold.DetectTime.Seconds(), Unit: "s"},
		{Name: "serve/batch4/virtual-analysis", Value: cold.AnalysisTime.Seconds(), Unit: "s"},
		{Name: "serve/batch4/warm/cache-hits", Value: float64(warm.CacheHits), Unit: "count"},
		{Name: "serve/batch4/cache-bytes", Value: float64(svc.Cache.Bytes()), Unit: "bytes"},
		{Name: "serve/batch4/libs", Value: float64(len(cold.Libs)), Unit: "count"},
		{Name: "serve/cluster3/cold/wall", Value: clusterColdWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/cluster3/peer_warm/wall", Value: clusterWarmWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/cluster3/peer_warm/peer-hits", Value: float64(peerHits), Unit: "count"},
		{Name: "serve/cluster3/peer_warm/round-trips", Value: float64(peerWarmRoundTrips), Unit: "count"},
		{Name: "serve/cluster3/cold/remote-execs", Value: float64(remoteExecs), Unit: "count"},
		{Name: "serve/cluster3/churn/heal-wall", Value: healWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/cluster3/churn/objects-streamed", Value: float64(churnStreamed), Unit: "count"},
		{Name: "serve/cluster3/churn/post-heal-wall", Value: churnPostWall.Seconds() * 1000, Unit: "ms"},
		{Name: "serve/gateway/storm/submits", Value: float64(gwRep.Submits), Unit: "count"},
		{Name: "serve/gateway/storm/job-p50", Value: gwRep.Latency.P50, Unit: "ms"},
		{Name: "serve/gateway/storm/job-p99", Value: gwRep.Latency.P99, Unit: "ms"},
		{Name: "serve/gateway/storm/submit-p99", Value: gwRep.SubmitLatency.P99, Unit: "ms"},
		{Name: "serve/gateway/storm/shed-rate", Value: 100 * float64(gwRep.Shed) / float64(gwRep.Submits), Unit: "%"},
		{Name: "serve/gateway/storm/coalesce-rate", Value: 100 * float64(gw.Counters.Get("gateway.coalesced")) / float64(gwRep.Accepted), Unit: "%"},
		{Name: "serve/gateway/storm/failed-accepted", Value: float64(gwRep.FailedAccepted), Unit: "count"},
		{Name: "serve/gateway/storm/analysis-computed-delta", Value: float64(gwComputedDelta), Unit: "count"},
		// Frozen pre-byte-plane measurements (PR 6 tree, same harness) so
		// the trajectory file itself records the before/after of the mmap +
		// pooling + wire-v2 work. Constants by design: they never drift, so
		// cmd/benchdiff always sees them at +0.0%.
		{Name: "serve/batch4/warm/alloc-bytes/pre-byteplane", Value: 15818096, Unit: "bytes"},
		{Name: "serve/cluster3/peer_warm/wall/pre-byteplane", Value: 287.232978, Unit: "ms"},
		// Frozen pre-hot-path measurements (PR 8 tree, same harness): the
		// before of the batched scatter-gather + hedged-read + critical-path
		// scheduling work. The per-key peer tier paid 15 round trips on the
		// peer-warm batch (one per peer hit, see peer_warm/peer-hits).
		{Name: "serve/batch4/cold/parallel-wall/pre-hotpath", Value: 22.263758, Unit: "ms"},
		{Name: "serve/cluster3/cold/wall/pre-hotpath", Value: 237.056541, Unit: "ms"},
		{Name: "serve/cluster3/peer_warm/wall/pre-hotpath", Value: 43.696530, Unit: "ms"},
		{Name: "serve/cluster3/peer_warm/round-trips/pre-hotpath", Value: 15, Unit: "count"},
		{Name: "serve/gateway/storm/job-p99/pre-hotpath", Value: 188.868981, Unit: "ms"},
		// Frozen pre-local-compact measurement (PR 12 tree, same harness and
		// machine as the file regenerated with this change; median of three
		// runs, 123.3–127.9): the cold wall when compact stages still
		// executed on their owning shard, 18 library images shipped inline
		// (cold/remote-execs 20).
		{Name: "serve/cluster3/cold/wall/pre-localcompact", Value: 127.659477, Unit: "ms"},
	}
	if err := experiments.WriteBenchJSON(*benchJSON, entries); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d entries to %s (cold serial %v, cold parallel %v, warm %v, warm alloc %d B)",
		len(entries), *benchJSON, serialWall.Round(time.Millisecond), coldWall.Round(time.Millisecond), warmWall.Round(time.Millisecond), warmAlloc)
}
