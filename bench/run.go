package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"syscall"
	"time"

	"negativaml/internal/negativa"
)

// env is what every workload of one command invocation shares.
type env struct {
	seed       int64
	dataRoot   string // this run's scratch directory; removed on exit
	fsType     string // filesystem dataRoot is on
	outDir     string // span files go here
	check      *checker
	checkEvery int      // full output check on a row's first and last op and every checkEvery-th between
	minSamples int      // a row that ends a run with fewer samples fails the run; minSamplesPerRow outside tests
	setupRuns  int      // set-up is repeated this often and setup_s is the median
	spinner    []string // command line of a keep-awake child (gateway.go); empty: none
}

// sample is one timed op on one row.
type sample struct {
	row    *row
	wall   time.Duration
	traced bool
	out    output
	// stored is what the system retains after the op (result-cache bytes
	// plus store bytes over every node, after replication settled) and
	// storedInput the input bytes that retention answers for.
	stored, storedInput int64
	err                 error
}

// runner is one workload's state between set-up and close.
type runner interface {
	// setup does everything that precedes the first timed op: generate the
	// rows' installs, write trees, pre-warm, build whatever is long-lived.
	setup(rows []*row) error
	close()
}

// opRunner is the runner of a closed-loop workload.
type opRunner interface {
	runner
	// op runs one op on the row and returns its samples (one, or one per
	// peer for cluster_peer_warm). Only the sections between m.start and
	// m.stop are timed; fresh rings, stores and directories are untimed
	// preparation. rec is nil for an untraced op.
	op(r *row, m *meter, rec *recorder) []sample
}

// workload is a named traffic mix. Why each exists is recorded here and
// carried into BENCHMARK.json and the README.
type workload struct {
	name string
	why  string
	rows []string
	new  func(e *env) runner
	// run, when set, replaces the closed loop and its opRunner
	// (gateway_open is open-loop).
	run func(e *env, rows []*row, rn runner, seconds float64, res *result)
}

// meter accumulates wall, process CPU and heap bytes allocated over the
// timed sections of a run. CPU is getrusage user+system of the whole
// process, so every node of an in-process ring is included.
type meter struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64

	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64
	sample [1]metrics.Sample
}

func newMeter() *meter {
	m := &meter{}
	m.sample[0].Name = "/gc/heap/allocs:bytes"
	return m
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (m *meter) heapAllocs() uint64 {
	metrics.Read(m.sample[:])
	return m.sample[0].Value.Uint64()
}

func (m *meter) start() {
	m.cpu0, m.alloc0 = processCPU(), m.heapAllocs()
	m.t0 = time.Now()
}

// stop ends a timed section and returns its wall time.
func (m *meter) stop() time.Duration {
	d := time.Since(m.t0)
	m.wall += d
	m.cpu += processCPU() - m.cpu0
	m.alloc += m.heapAllocs() - m.alloc0
	return d
}

// result is everything one run of one workload measured.
type result struct {
	traced bool
	setupS []float64
	calib  *calibrator
	rows   []*row

	lat         map[string][]float64 // row → op latencies in ms, every sample
	latTraced   map[string][]float64 // the traced ops among them
	latUntraced map[string][]float64 // and the untraced
	stored      map[string][]float64
	storedIn    map[string]int64
	totals      map[string]negativa.Totals
	attempted   int
	failed      int
	failures    []string // first few failure messages
	inputDone   int64    // input bytes of ops that completed
	meter       *meter
	loopWall    time.Duration // whole measuring loop, preparation and checks included
	rec         *recorder
	invalid     string // non-empty: the run's numbers must not be used

	gw     *gatewayStats
	probes map[string]float64
}

// record books one sample and, when asked, runs the full output check on
// it. Checks run outside the timed section by construction: the sample's
// wall time is already fixed.
func (res *result) record(e *env, s sample, full bool) {
	res.attempted++
	name := s.row.name
	err := s.err
	if err == nil && (s.out.res == nil || !s.out.res.AllVerified()) {
		err = fmt.Errorf("a member workload is not verified")
	}
	if err == nil && full {
		err = e.check.check(s.row, s.out)
	}
	if err != nil {
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, fmt.Sprintf("%s: %v", name, err))
		}
		return
	}
	lat := ms(s.wall)
	res.lat[name] = append(res.lat[name], lat)
	if s.traced {
		res.latTraced[name] = append(res.latTraced[name], lat)
	} else {
		res.latUntraced[name] = append(res.latUntraced[name], lat)
	}
	res.inputDone += s.row.input
	res.stored[name] = append(res.stored[name], float64(s.stored))
	res.storedIn[name] = s.storedInput
	if _, ok := res.totals[name]; !ok {
		res.totals[name] = s.out.totals()
	}
}

// run measures one workload: set-up (repeated, for a steady setup_s), then
// the measuring loop for the given number of seconds.
func (e *env) run(w *workload, seconds float64, traced bool) (*result, error) {
	res := &result{
		traced: traced,
		lat:    map[string][]float64{}, latTraced: map[string][]float64{}, latUntraced: map[string][]float64{},
		stored: map[string][]float64{}, storedIn: map[string]int64{},
		totals: map[string]negativa.Totals{}, meter: newMeter(),
	}
	if traced {
		res.rec = newRecorder()
	}
	var err error
	if res.calib, err = newCalibrator(); err != nil {
		return nil, err
	}
	defer res.calib.close()

	var rn runner
	for i := 0; i < e.setupRuns; i++ {
		if rn != nil {
			rn.close()
		}
		res.rows = newRows(w.rows...)
		rn = w.new(e)
		t0 := time.Now()
		if err := rn.setup(res.rows); err != nil {
			rn.close()
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		res.setupS = append(res.setupS, time.Since(t0).Seconds())
	}
	defer rn.close()

	t0 := time.Now()
	if w.run != nil {
		w.run(e, res.rows, rn, seconds, res)
	} else {
		e.closedLoop(res.rows, rn.(opRunner), seconds, res)
	}
	res.loopWall = time.Since(t0)

	for _, r := range res.rows {
		if n := len(res.lat[r.name]); n < e.minSamples {
			return res, fmt.Errorf("%s: row %s ended with %d samples, fewer than the floor of %d", w.name, r.name, n, e.minSamples)
		}
	}
	if traced {
		res.probes = runProbes(e, res.rows)
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return res, err
		}
		if err := res.rec.write(filepath.Join(e.outDir, w.name+".spans.json"), w.name); err != nil {
			return res, err
		}
	}
	return res, nil
}

// minSamplesPerRow is the floor for a p90 with ten samples beyond it. A
// closed loop runs on past its time until every row has that many; a run
// that still ends with fewer fails.
const minSamplesPerRow = 100

// closedLoop is one client: it visits the rows round-robin in an order
// drawn from the seed, sends the next op only after the previous one
// completed, and stops starting rounds when the time is up and every row
// has its floor of samples (or, on a machine too slow for that, at twice
// the time). A last round then gives every row its checked final op. In a
// traced run every other visit of a row is traced, so traced and untraced
// latencies interleave and their difference is the tracing overhead.
func (e *env) closedLoop(rows []*row, rn opRunner, seconds float64, res *result) {
	order := rotation(e.seed, len(rows))
	run := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for visit, last := 0, false; !last; visit++ {
		spent := time.Since(start)
		last = spent >= run && (res.samplesPerRow() >= e.minSamples || spent >= 2*run)
		for _, i := range order {
			r := rows[i]
			var rec *recorder
			if res.rec != nil && visit%2 == 1 {
				rec = res.rec
			}
			for _, s := range rn.op(r, res.meter, rec) {
				res.record(e, s, visit == 0 || last || visit%e.checkEvery == 0)
			}
			res.calib.unit()
		}
	}
}

// endToEnd computes the end-to-end metrics of an untraced run, its times
// multiplied by k.
func (res *result) endToEnd(k float64) map[string]float64 {
	var p50s, p90s []float64
	var stored, storedIn float64
	var tot negativa.Totals
	for _, r := range res.rows {
		l := res.lat[r.name]
		if len(l) > 0 {
			p50s = append(p50s, percentile(l, 0.5))
			p90s = append(p90s, percentile(l, 0.9))
		}
		stored += median(res.stored[r.name])
		storedIn += float64(res.storedIn[r.name])
		t := res.totals[r.name]
		tot.FileEffective += t.FileEffective
		tot.FileEffectiveAfter += t.FileEffectiveAfter
		tot.GPUSize += t.GPUSize
		tot.GPUSizeAfter += t.GPUSizeAfter
		tot.CPUSize += t.CPUSize
		tot.CPUSizeAfter += t.CPUSizeAfter
	}
	ok := float64(res.attempted - res.failed)
	// Times are reported at the reference machine's speed (calib.go); k is
	// 1 for the raw values. An open loop's throughput is taken over the
	// phase as scheduled, whatever the machine's speed and however long the
	// last ops took to drain: it is the offered load for as long as every op
	// completes, and is not scaled. Nor is its set-up time: its unit is read
	// inside the phase, with the vCPUs kept awake, and says nothing about the
	// set-up before it (NOISE.md).
	wall, setup := k*res.meter.wall.Seconds(), k*median(res.setupS)
	if res.gw != nil {
		wall, setup = res.gw.scheduled.Seconds(), median(res.setupS)
	}
	return map[string]float64{
		"setup_s":                     setup,
		"op_p50_ms":                   k * geomean(p50s),
		"op_p90_ms":                   k * geomean(p90s),
		"input_mb_per_s":              ratio(float64(res.inputDone)/1e6, wall),
		"cpu_ms_per_op":               k * ratio(ms(res.meter.cpu), ok),
		"alloc_mb_per_op":             ratio(float64(res.meter.alloc)/1e6, ok),
		"ok_share":                    ratio(ok, float64(res.attempted)),
		"file_reduction_pct":          tot.FileReductionPct(),
		"gpu_reduction_pct":           tot.GPUReductionPct(),
		"cpu_reduction_pct":           tot.CPUReductionPct(),
		"stored_bytes_per_input_byte": ratio(stored, storedIn),
	}
}

// samplesPerRow is the smallest per-row sample count of the run.
func (res *result) samplesPerRow() int {
	n := -1
	for _, r := range res.rows {
		if c := len(res.lat[r.name]); n < 0 || c < n {
			n = c
		}
	}
	return max(n, 0)
}

// rowCounts renders "row=n" pairs in row order, for printing beside the
// percentiles.
func (res *result) rowCounts() string {
	var parts []string
	for _, r := range res.rows {
		parts = append(parts, fmt.Sprintf("%s=%d", r.name, len(res.lat[r.name])))
	}
	return fmt.Sprint(parts)
}
