package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/dserve"
	"negativaml/internal/ingest"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// paperRows are the four installs shaped like the paper's Table 1.
var paperRows = []string{"pytorch141", "tensorflow388", "vllm155", "hf85"}

// workloads lists the benchmark's traffic mixes in the order they run and
// print. Each why is one line: BENCHMARK.json carries it verbatim.
func workloads() []*workload {
	return []*workload{
		{
			name: "cold_ingest", rows: paperRows,
			why: "The paper's own flow, tree in and libraries out, every library's index built cold: ingest, elfx, fatbin/cubin, negativa and mlruntime do the work; castore, cluster and gateway do none.",
			new: func(e *env) runner { return &coldIngest{e: e} },
		},
		{
			name: "warm_resubmit", rows: paperRows,
			why: "Every stage hits, so what is left is plan scheduling, dserve memo probes, the unmemoized verify run and streaming: the bypass workload for analysis and storage changes.",
			new: func(e *env) runner { return &warmResubmit{} },
		},
		{
			name: "disk_persist", rows: []string{"pytorch141", "vllm155"},
			why: "Write side of castore and the result-cache spill: a batch on a fresh service (library indexes memoized by elfx) timed until service and store are closed and everything is durable.",
			new: func(e *env) runner { return &diskPair{e: e} },
		},
		{
			name: "disk_restore", rows: []string{"pytorch141", "vllm155"},
			why: "Read side of the same layer: reopen a filled store, replay the registry and serve the batch with no analysis, so faster writes bought with slower reads show here.",
			new: func(e *env) runner { return &diskPair{e: e, restore: true} },
		},
		{
			name: "cluster_cold", rows: []string{"pytorch20"},
			why: "Write/execute side of the peer plane on a fresh 3-node ring (R=2): remote detect/compact on owning shards, write-back replication (elfx indexes memoized); the gap to local cold ROADMAP asks about.",
			new: func(e *env) runner { return &clusterPair{e: e} },
		},
		{
			name: "cluster_peer_warm", rows: []string{"pytorch20"},
			why: "Read side of the peer plane: the same batch on the two other nodes, served by lookup-batch scatter-gather, hedged replica reads and the sparse wire codec with no local analysis.",
			new: func(e *env) runner { return &clusterPair{e: e, peerWarm: true} },
		},
		{
			name: "gateway_open", rows: []string{"gw8x1", "gw8x2", "gw8x4", "gw20x1", "gw20x2", "gw20x4"},
			why: "The only workload with arrivals and a queue: 60 submits/s in bursts of 4 through admission, lane dispatch, coalescing and event fan-out over a warm backend at about a third utilisation.",
			new: func(e *env) runner { return &gatewayOpen{e: e} },
			run: runGatewayOpen,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobTimeout bounds the wait for one submitted job. Jobs here finish in
// well under a second; a job that does not is counted as failed.
const jobTimeout = 60 * time.Second

// stageTracer turns the per-stage callbacks of one batch into child spans
// and per-tier sums. StageSource fires for every finished node, so
// StageDone has nothing left to do.
type stageTracer struct{ t *opTrace }

func (stageTracer) StageDone(string, bool, time.Duration) {}

func (o stageTracer) StageSource(stage string, src plan.Source, wall time.Duration) {
	end := o.t.rec.now()
	wallMS := ms(wall)
	o.t.child(stage, stageLayer(stage, src), end-int64(wall), end, map[string]string{"tier": src.String()})
	o.t.add("stage."+stage+".ms", wallMS)
	o.t.add("stage."+stage+".n", 1)
	if src.Hit() {
		o.t.add("stage."+stage+".hits", 1)
	}
	o.t.add("tier."+src.String()+".count", 1)
	o.t.add("tier."+src.String()+".ms", wallMS)
	if src == plan.SourceComputed {
		o.t.add("computed."+stage+".ms", wallMS)
	}
}

// stageLayer names the package a stage's time is spent in: the tier that
// served it when it hit, the package whose function the node runs when it
// computed.
func stageLayer(stage string, src plan.Source) string {
	switch src {
	case plan.SourceMemory:
		return "dserve"
	case plan.SourceDisk:
		return "castore"
	case plan.SourcePeer:
		return "cluster"
	}
	switch stage {
	case negativa.StageLibIndex:
		return "elfx"
	case negativa.StageDetect, negativa.StageLocate, negativa.StageCompact, "clone":
		return "negativa"
	case negativa.StageVerifyRun:
		return "mlruntime"
	}
	return "dserve" // union, prefetch: glue nodes of DebloatBatch
}

// observer is the batch observer of a traced op, and nil — so the batch
// runs exactly as without the harness — for an untraced one.
func observer(t *opTrace) plan.Observer {
	if t == nil {
		return nil
	}
	return stageTracer{t}
}

// traceResult books what a batch result says about the layers.
func traceResult(t *opTrace, res *dserve.BatchResult) {
	if t == nil || res == nil {
		return
	}
	var ranges, verified int
	for _, lr := range res.Libs {
		ranges += len(lr.Sparse.ZeroedRanges())
	}
	for _, w := range res.Workloads {
		if w.Verified {
			verified++
		}
	}
	t.add("negativa.zeroed_ranges", float64(ranges))
	t.add("verify.ok", float64(verified))
	t.add("cudasim.virtual_s", res.EndToEnd().Seconds())
}

// serviceCounts reads what the services' public accessors say about the
// dserve and castore layers: retained cache bytes, the durability-tail
// timings of persisted jobs, and the stores' exact counts.
func serviceCounts(svcs ...*dserve.Service) map[string]float64 {
	c := map[string]float64{}
	for _, svc := range svcs {
		c["dserve.cache_bytes"] += float64(svc.Cache.Bytes())
		for _, phase := range []string{"flush", "sync", "manifest", "retain"} {
			d := svc.Timings.Summary("persist." + phase)
			c["dserve.persist_"+phase+"_ms"] += d.Mean * float64(d.N)
		}
		if st := svc.Store(); st != nil {
			s := st.Stats()
			c["castore.puts"] += float64(s.Puts)
			c["castore.put_bytes"] += float64(s.Bytes)
			c["castore.hits"] += float64(s.Hits)
			c["castore.misses"] += float64(s.Misses)
			c["castore.objects"] += float64(s.Objects)
		}
	}
	return c
}

// traceServices books the services' counts into the op: as deltas against
// before (nil for services the op created), except the two levels — cache
// bytes and object count — which are booked as they stand.
func traceServices(t *opTrace, before map[string]float64, svcs ...*dserve.Service) {
	if t == nil {
		return
	}
	for k, v := range serviceCounts(svcs...) {
		if k != "dserve.cache_bytes" && k != "castore.objects" {
			v -= before[k]
		}
		t.add(k, v)
	}
}

// resultStream re-streams a library of a finished batch for the output
// check.
func resultStream(res *dserve.BatchResult) func(string, io.Writer) (int64, error) {
	return func(lib string, w io.Writer) (int64, error) {
		lr := res.Lib(lib)
		if lr == nil || lr.Sparse == nil {
			return 0, fmt.Errorf("no debloated image")
		}
		return lr.Sparse.WriteTo(w)
	}
}

// batchAndStream is the middle of every single-node op: one batch, then
// every debloated library streamed into a counting sink.
func batchAndStream(t *opTrace, svc *dserve.Service, in *mlframework.Install, ws []mlruntime.Workload, steps int) (*dserve.BatchResult, error) {
	sp := t.span("batch", "plan")
	res, err := svc.DebloatBatch(in, ws, dserve.BatchOptions{
		MaxSteps: steps, Observer: observer(t),
		OnPlanned: func(n int) { t.add("plan.nodes", float64(n)) },
	})
	t.add("plan.wall_ms", ms(sp.end()))
	if err != nil {
		return nil, err
	}
	sp = t.span("stream", "negativa")
	var sink countingSink
	for _, lr := range res.Libs {
		if _, err := lr.Sparse.WriteTo(&sink); err != nil {
			sp.end()
			return nil, fmt.Errorf("stream %s: %w", lr.Name, err)
		}
	}
	t.add("dserve.stream_ms", ms(sp.end()))
	t.add("dserve.stream_bytes", float64(sink.n))
	traceResult(t, res)
	return res, nil
}

// streamJob writes every debloated library of a finished job into a counting
// sink, through the stream handle a download would use.
func streamJob(svc *dserve.Service, id string, libs []string) (int64, error) {
	var sink countingSink
	for _, name := range libs {
		ls, err := svc.OpenLibStream(id, name)
		if err != nil {
			return sink.n, fmt.Errorf("open %s: %w", name, err)
		}
		_, err = ls.WriteTo(&sink)
		ls.Close()
		if err != nil {
			return sink.n, fmt.Errorf("stream %s: %w", name, err)
		}
	}
	return sink.n, nil
}

// submitAndStream is the middle of every job-shaped op: submit, wait for
// the completion callback, stream every library through OpenLibStream.
func submitAndStream(t *opTrace, svc *dserve.Service, r *row) (*dserve.BatchResult, error) {
	done := make(chan *dserve.Job, 1)
	// A job is more than its batch: the service generates the install before
	// it and persists the result after it, so the span's self time is
	// dserve's, not plan's.
	sp := t.span("job", "dserve")
	_, err := svc.SubmitWith(r.request(), dserve.SubmitOptions{Observer: observer(t), OnDone: func(j *dserve.Job) { done <- j }})
	if err != nil {
		sp.end()
		return nil, err
	}
	var job *dserve.Job
	select {
	case job = <-done:
	case <-time.After(jobTimeout):
		sp.end()
		return nil, fmt.Errorf("job not finished after %v", jobTimeout)
	}
	t.add("plan.wall_ms", ms(sp.end()))
	t.add("plan.nodes", float64(job.StagesTotal))
	if job.State != dserve.JobDone {
		return nil, fmt.Errorf("job %s: %s", job.State, job.Err)
	}
	sp = t.span("stream", "negativa")
	n, err := streamJob(svc, job.ID, r.in.LibNames)
	t.add("dserve.stream_ms", ms(sp.end()))
	t.add("dserve.stream_bytes", float64(n))
	if err != nil {
		return nil, err
	}
	traceResult(t, job.Result)
	return job.Result, nil
}

func generateAll(rows []*row) error {
	for _, r := range rows {
		if err := r.generate(); err != nil {
			return err
		}
	}
	return nil
}

// ---- cold_ingest ----

// coldIngest points the tool at a tree on disk and gets libraries back.
// The tree is parsed afresh every op, so nothing a *Library caches lazily
// survives from one op to the next; and because elfx shares built indexes
// process-wide by content digest, every op first stamps its number into the
// tree's libraries (untimed), so that no index, fatbin or cubin walk of an
// earlier op can answer for this one — as in the one process per tree of
// the paper's flow.
type coldIngest struct {
	e   *env
	dir string
	ops uint32
}

// An op's stamp goes into the last four bytes of the e_ident padding, which
// no ELF reader interprets. Every byte of it is non-zero, so a stamped
// library holds exactly stampLen more non-zero bytes than its row's.
const (
	stampOffset = 12
	stampLen    = 4
)

// stampOf spells an op number as stampLen non-zero bytes.
func stampOf(op uint32) (b [stampLen]byte) {
	for i := range b {
		b[i] = byte(op%255) + 1
		op /= 255
	}
	return b
}

// stampTree writes the stamp into every library file of a tree.
func stampTree(dir string, libs []string, stamp [stampLen]byte) error {
	for _, name := range libs {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		_, err = f.WriteAt(stamp[:], stampOffset)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("stamp %s: %w", name, err)
		}
	}
	return nil
}

func (c *coldIngest) setup(rows []*row) error {
	var err error
	if c.dir, err = os.MkdirTemp(c.e.dataRoot, "trees-"); err != nil {
		return err
	}
	if err := generateAll(rows); err != nil {
		return err
	}
	for _, r := range rows {
		if err := r.in.WriteTo(filepath.Join(c.dir, r.name)); err != nil {
			return err
		}
	}
	return nil
}

func (c *coldIngest) close() { os.RemoveAll(c.dir) }

func (c *coldIngest) op(r *row, m *meter, rec *recorder) []sample {
	c.ops++
	stamp := stampOf(c.ops)
	if err := stampTree(filepath.Join(c.dir, r.name), r.in.LibNames, stamp); err != nil {
		return []sample{{row: r, err: err}}
	}
	t := rec.begin(r.name)
	s := sample{row: r, traced: t != nil, storedInput: r.input}
	s.out.stamp = stamp[:]
	var svc *dserve.Service
	m.start()
	s.out.res, s.err = func() (*dserve.BatchResult, error) {
		sp := t.span("ingest", "ingest")
		tree, err := ingest.Tree(filepath.Join(c.dir, r.name), ingest.Options{})
		if err != nil {
			sp.end()
			return nil, err
		}
		in, err := tree.Install()
		t.add("ingest.ms", ms(sp.end()))
		if err != nil {
			return nil, err
		}
		t.add("ingest.bytes", float64(in.TotalFileSize()))
		t.add("ingest.files", float64(len(tree.Files)))
		ws, err := r.workloads(in)
		if err != nil {
			return nil, err
		}
		sp = t.span("boot", "dserve")
		svc = dserve.NewService(dserve.Config{MaxSteps: r.maxSteps})
		t.add("dserve.boot_ms", ms(sp.end()))
		return batchAndStream(t, svc, in, ws, r.maxSteps)
	}()
	s.wall = m.stop()
	if svc != nil {
		s.stored = svc.Cache.Bytes()
		traceServices(t, nil, svc)
		svc.Close()
	}
	t.finish()
	if s.err == nil {
		s.out.stream = resultStream(s.out.res)
	}
	return []sample{s}
}

// ---- warm_resubmit ----

// warmResubmit repeats batches a long-lived in-memory service has already
// served once.
type warmResubmit struct {
	svc   *dserve.Service
	ws    map[string][]mlruntime.Workload
	input int64
}

func (w *warmResubmit) setup(rows []*row) error {
	if err := generateAll(rows); err != nil {
		return err
	}
	w.svc = dserve.NewService(dserve.Config{MaxSteps: 4})
	w.ws = map[string][]mlruntime.Workload{}
	for _, r := range rows {
		ws, err := r.workloads(r.in)
		if err != nil {
			return err
		}
		w.ws[r.name] = ws
		w.input += r.input
		if _, err := w.svc.DebloatBatch(r.in, ws, dserve.BatchOptions{MaxSteps: r.maxSteps}); err != nil {
			return err
		}
	}
	return nil
}

func (w *warmResubmit) close() {
	if w.svc != nil {
		w.svc.Close()
	}
}

func (w *warmResubmit) op(r *row, m *meter, rec *recorder) []sample {
	t := rec.begin(r.name)
	var before map[string]float64
	if t != nil {
		before = serviceCounts(w.svc)
	}
	// The one service holds every row, so its retained bytes answer for the
	// summed input of all of them.
	s := sample{row: r, traced: t != nil, storedInput: w.input}
	m.start()
	s.out.res, s.err = batchAndStream(t, w.svc, r.in, w.ws[r.name], r.maxSteps)
	s.wall = m.stop()
	s.stored = w.svc.Cache.Bytes()
	traceServices(t, before, w.svc)
	t.finish()
	if s.err == nil {
		s.out.stream = resultStream(s.out.res)
		if s.out.res.CacheMisses != 0 || s.out.res.ProfileReuses != len(r.specs) {
			s.err = fmt.Errorf("warm batch recomputed: %d cache misses, %d of %d profiles reused", s.out.res.CacheMisses, s.out.res.ProfileReuses, len(r.specs))
		}
	}
	return []sample{s}
}

// ---- disk_persist / disk_restore ----

// diskPair runs one loop — persist a cold batch into a fresh data dir, then
// reopen the directory and serve the batch again — and times one half of
// it: the persist (until service and store are closed), or the restore.
type diskPair struct {
	e       *env
	restore bool
	dir     string
	ws      map[string][]mlruntime.Workload
}

func (d *diskPair) setup(rows []*row) error {
	var err error
	if d.dir, err = os.MkdirTemp(d.e.dataRoot, "disk-"); err != nil {
		return err
	}
	if err := generateAll(rows); err != nil {
		return err
	}
	d.ws = map[string][]mlruntime.Workload{}
	for _, r := range rows {
		if d.ws[r.name], err = r.workloads(r.in); err != nil {
			return err
		}
	}
	return nil
}

func (d *diskPair) close() { os.RemoveAll(d.dir) }

func (d *diskPair) op(r *row, m *meter, rec *recorder) []sample {
	s := sample{row: r, storedInput: r.input}
	dir, err := os.MkdirTemp(d.dir, "store-")
	if err != nil {
		s.err = err
		return []sample{s}
	}
	defer os.RemoveAll(dir)
	st, err := castore.Open(dir, castore.Options{})
	if err != nil {
		s.err = err
		return []sample{s}
	}
	svc := dserve.NewService(dserve.Config{MaxSteps: r.maxSteps, Store: st})

	if !d.restore {
		t := rec.begin(r.name)
		s.traced = t != nil
		m.start()
		s.out.res, s.err = batchAndStream(t, svc, r.in, d.ws[r.name], r.maxSteps)
		sp := t.span("close", "castore")
		svc.Close()
		st.Close()
		sp.end()
		s.wall = m.stop()
		s.stored = svc.Cache.Bytes() + st.Stats().Bytes
		traceServices(t, nil, svc)
		t.finish()
		if s.err == nil {
			s.out.stream = resultStream(s.out.res)
		}
		return []sample{s}
	}

	_, err = svc.DebloatBatch(r.in, d.ws[r.name], dserve.BatchOptions{MaxSteps: r.maxSteps})
	svc.Close()
	st.Close()
	if err != nil {
		s.err = fmt.Errorf("persist before restore: %w", err)
		return []sample{s}
	}

	t := rec.begin(r.name)
	s.traced = t != nil
	m.start()
	sp := t.span("open", "castore")
	st, err = castore.Open(dir, castore.Options{})
	sp.end()
	if err != nil {
		m.stop()
		t.finish()
		s.err = err
		return []sample{s}
	}
	sp = t.span("boot", "dserve")
	svc = dserve.NewService(dserve.Config{MaxSteps: r.maxSteps, Store: st})
	t.add("dserve.boot_ms", ms(sp.end()))
	s.out.res, s.err = batchAndStream(t, svc, r.in, d.ws[r.name], r.maxSteps)
	s.wall = m.stop()
	s.stored = svc.Cache.Bytes() + st.Stats().Bytes
	traceServices(t, nil, svc)
	t.finish()
	if s.err == nil {
		s.out.stream = resultStream(s.out.res)
		if n := svc.Counters.Get("analysis.computed"); s.out.res.CacheMisses != 0 || n != 0 {
			s.err = fmt.Errorf("restore recomputed: %d cache misses, analysis.computed=%d", s.out.res.CacheMisses, n)
		}
	}
	svc.Close()
	st.Close()
	return []sample{s}
}

// ---- cluster_cold / cluster_peer_warm ----

// node is one member of an in-process ring: its own store, service and
// loopback HTTP server.
type node struct {
	id  string
	st  *castore.Store
	svc *dserve.Service
	srv *httptest.Server
}

// ring is three fresh store-backed nodes joined over loopback with R=2,
// built the way bench_test.go builds its ring.
type ring struct {
	dir   string
	nodes []*node
	// trace is the op the peer-route middleware reports into; nil between
	// traced ops, and then a request passes through untouched.
	trace atomic.Pointer[opTrace]
}

// peerCounters are the per-node series the cluster.* counts sum.
var peerCounters = map[string]string{
	"peer.round_trips":     "cluster.round_trips",
	"peer.hits":            "cluster.peer_hits",
	"peer.misses":          "cluster.peer_misses",
	"peer.remote_execs":    "cluster.remote_execs",
	"peer.fallbacks":       "cluster.fallbacks",
	"peer.hedge_fired":     "cluster.hedge_fired",
	"peer.hedge_won":       "cluster.hedge_won",
	"peer.replica_writes":  "cluster.replica_writes",
	"peer.objects_fetched": "cluster.objects_fetched",
}

// peerRoutes are the routes the middleware reports by name.
var peerRoutes = []string{"lookup-batch", "lookup", "detect", "compact", "objects", "stat"}

func routeOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/peer/")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(rest, "/")
	for _, r := range peerRoutes {
		if r == name {
			return r
		}
	}
	return ""
}

// countingWriter counts response bytes on their way out.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeTracer is the middleware the harness wraps around dserve.NewHandler
// on the servers it owns: one span and one set of counts per peer request,
// taken on the serving node.
func (rg *ring) routeTracer(nodeID string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := rg.trace.Load()
		route := routeOf(r.URL.Path)
		if t == nil || route == "" {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := t.rec.now()
		h.ServeHTTP(cw, r)
		end := t.rec.now()
		t.child(route, "dserve.peer", start, end, map[string]string{"node": nodeID, "method": r.Method})
		t.add("route."+route+".calls", 1)
		t.add("route."+route+".ms", float64(end-start)/1e6)
		t.add("route."+route+".bytes", float64(max(r.ContentLength, 0)+cw.n))
	})
}

// newRing builds and joins the ring. traced wraps every server in the
// route middleware; an untraced run serves dserve.NewHandler bare.
func newRing(root string, traced bool) (*ring, error) {
	dir, err := os.MkdirTemp(root, "ring-")
	if err != nil {
		return nil, err
	}
	rg := &ring{dir: dir}
	urls := map[string]string{}
	for _, id := range []string{"a", "b", "c"} {
		st, err := castore.Open(filepath.Join(dir, id), castore.Options{})
		if err != nil {
			rg.stop()
			return nil, err
		}
		svc := dserve.NewService(dserve.Config{MaxSteps: 4, Store: st})
		h := dserve.NewHandler(svc)
		if traced {
			h = rg.routeTracer(id, h)
		}
		n := &node{id: id, st: st, svc: svc, srv: httptest.NewServer(h)}
		rg.nodes = append(rg.nodes, n)
		urls[id] = n.srv.URL
	}
	for _, n := range rg.nodes {
		n.svc.AttachCluster(cluster.New(n.id, urls, cluster.Options{Counters: n.svc.Counters, Timings: n.svc.Timings}))
	}
	return rg, nil
}

func (rg *ring) stop() {
	for _, n := range rg.nodes {
		n.srv.Close()
		n.svc.Close()
		n.st.Close()
	}
	os.RemoveAll(rg.dir)
}

func (rg *ring) waitReplication() {
	for _, n := range rg.nodes {
		n.svc.WaitReplication()
	}
}

// stored is what the whole ring retains: every node's result cache plus
// every node's store.
func (rg *ring) stored() int64 {
	var n int64
	for _, nd := range rg.nodes {
		n += nd.svc.Cache.Bytes() + nd.st.Stats().Bytes
	}
	return n
}

// counters sums the peer.* series over the nodes.
func (rg *ring) counters() map[string]int64 {
	out := map[string]int64{}
	for _, nd := range rg.nodes {
		for src := range peerCounters {
			out[src] += nd.svc.Counters.Get(src)
		}
	}
	return out
}

func (rg *ring) services() []*dserve.Service {
	svcs := make([]*dserve.Service, len(rg.nodes))
	for i, nd := range rg.nodes {
		svcs[i] = nd.svc
	}
	return svcs
}

// settle waits, outside the timed section, for write-back replication; its
// peer requests still belong to the op's trace. It then books the ring's
// peer-counter deltas and every node's service and store counts.
func (rg *ring) settle(t *opTrace, peersBefore map[string]int64, svcsBefore map[string]float64) {
	sp := t.span("replicate", "dserve.repair")
	rg.waitReplication()
	sp.end()
	rg.trace.Store(nil)
	if t == nil {
		return
	}
	for src, v := range rg.counters() {
		t.add(peerCounters[src], float64(v-peersBefore[src]))
	}
	traceServices(t, svcsBefore, rg.services()...)
	t.finish()
}

// clusterPair runs one loop — a cold batch on node a of a fresh ring, then
// the same request on b and on c — and times one half of it.
type clusterPair struct {
	e        *env
	peerWarm bool
	dir      string
}

func (c *clusterPair) setup(rows []*row) error {
	var err error
	if c.dir, err = os.MkdirTemp(c.e.dataRoot, "cluster-"); err != nil {
		return err
	}
	if err := generateAll(rows); err != nil {
		return err
	}
	// The first ring is part of set-up: it pays the one-time costs (listener
	// and transport set-up, first install generation inside a service) that
	// a steady-state op must not.
	rg, err := newRing(c.dir, false)
	if err != nil {
		return err
	}
	defer rg.stop()
	_, err = submitAndStream(nil, rg.nodes[0].svc, rows[0])
	rg.waitReplication()
	return err
}

func (c *clusterPair) close() { os.RemoveAll(c.dir) }

func (c *clusterPair) op(r *row, m *meter, rec *recorder) []sample {
	rg, err := newRing(c.dir, rec != nil)
	if err != nil {
		return []sample{{row: r, err: err}}
	}
	defer rg.stop()
	a := rg.nodes[0]

	if !c.peerWarm {
		t := rec.begin(r.name)
		s := sample{row: r, traced: t != nil, storedInput: r.input}
		rg.trace.Store(t)
		m.start()
		s.out.res, s.err = submitAndStream(t, a.svc, r)
		s.wall = m.stop()
		rg.settle(t, nil, nil)
		s.stored = rg.stored()
		if s.err == nil {
			s.out.stream = resultStream(s.out.res)
		}
		return []sample{s}
	}

	if _, err := submitAndStream(nil, a.svc, r); err != nil {
		return []sample{{row: r, err: fmt.Errorf("cold batch before peer-warm: %w", err)}}
	}
	rg.waitReplication()
	var out []sample
	for _, nd := range rg.nodes[1:] {
		t := rec.begin(r.name)
		s := sample{row: r, traced: t != nil, storedInput: r.input}
		var peersBefore map[string]int64
		var svcsBefore map[string]float64
		if t != nil {
			peersBefore, svcsBefore = rg.counters(), serviceCounts(rg.services()...)
		}
		computed := nd.svc.Counters.Get("analysis.computed")
		rg.trace.Store(t)
		m.start()
		s.out.res, s.err = submitAndStream(t, nd.svc, r)
		s.wall = m.stop()
		rg.settle(t, peersBefore, svcsBefore)
		s.stored = rg.stored()
		if s.err == nil {
			s.out.stream = resultStream(s.out.res)
			if n := nd.svc.Counters.Get("analysis.computed") - computed; n != 0 {
				s.err = errors.New("peer-warm batch ran local analysis")
			}
		}
		out = append(out, s)
	}
	return out
}
