package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	sample := []float64{5, 1, 4, 2, 3} // sorted: 1 2 3 4 5
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, {0.125, 1.5},
	} {
		if got := percentile(sample, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if sample[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	// Halving any one row moves the mean by the same factor, whatever the
	// row's size: the reason latencies are combined this way.
	base := geomean([]float64{10, 1000, 50})
	for i := range 3 {
		rows := []float64{10, 1000, 50}
		rows[i] /= 2
		if got, want := geomean(rows)/base, math.Pow(0.5, 1.0/3); math.Abs(got-want) > 1e-12 {
			t.Errorf("halving row %d moved the geomean by %v, want %v", i, got, want)
		}
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},  // op
		{ID: 2, Parent: 1, Start: 10, End: 60},  // batch
		{ID: 3, Parent: 2, Start: 10, End: 30},  // stage, nested in batch
		{ID: 4, Parent: 2, Start: 20, End: 50},  // stage overlapping the first
		{ID: 5, Parent: 2, Start: 55, End: 80},  // answers after the batch closed
		{ID: 6, Parent: 1, Start: 60, End: 90},  // stream
		{ID: 7, Parent: 6, Start: 65, End: 70},  // nested two deep
		{ID: 8, Parent: 2, Start: 25, End: 28},  // inside both overlapping stages
		{ID: 9, Parent: 1, Start: 95, End: 100}, // adjacent to nothing
	}
	want := map[int]int64{
		1: 100 - (50 + 30 + 5), // children cover [10,60) [60,90) [95,100)
		2: 50 - (40 + 5),       // [10,50) from the overlapping pair, [55,60) clipped from span 5
		3: 20, 4: 30, 5: 25,
		6: 30 - 5,
		7: 5, 8: 3, 9: 5,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderAccounting(t *testing.T) {
	rec := newRecorder()
	tr := rec.begin("r")
	sp := tr.span("batch", "plan")
	tr.child("detect", "negativa", rec.now(), rec.now()+1000, nil)
	sp.end()
	tr.add("plan.nodes", 7)
	tr.finish()
	if rec.ops != 1 || rec.sums["plan.nodes"] != 7 {
		t.Fatalf("ops %d, sums %v", rec.ops, rec.sums)
	}
	if len(rec.kept) != 3 {
		t.Fatalf("kept %d spans, want op, batch and detect", len(rec.kept))
	}
	for _, s := range rec.kept {
		switch s.Name {
		case "op":
			if s.Parent != 0 {
				t.Errorf("op has parent %d", s.Parent)
			}
		case "batch":
			if s.Parent != tr.root {
				t.Errorf("batch parent %d, want the op %d", s.Parent, tr.root)
			}
		case "detect":
			if s.Parent == tr.root || s.Parent == 0 {
				t.Errorf("detect parent %d, want the batch span", s.Parent)
			}
		}
	}
	// A nil recorder and a nil trace are the untraced op: nothing panics.
	var none *recorder
	nt := none.begin("r")
	nt.span("batch", "plan").end()
	nt.child("x", "y", 0, 1, nil)
	nt.add("k", 1)
	nt.finish()
}

func TestArrivalSchedule(t *testing.T) {
	a := arrivalSchedule(1, 20, 6, 3)
	if !reflect.DeepEqual(a, arrivalSchedule(1, 20, 6, 3)) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, arrivalSchedule(2, 20, 6, 3)) {
		t.Fatal("different seed, same schedule")
	}
	if len(a) != 20*burstsPerSecond*burstSize {
		t.Fatalf("%d submits over 20 s, want %d", len(a), 20*burstsPerSecond*burstSize)
	}
	if last := a[len(a)-1].due.Seconds(); last < 19 || last > 21 {
		t.Errorf("last burst due at %.2f s of a 20 s phase", last)
	}
	rows := map[int]int{}
	for i, s := range a {
		if i > 0 && s.due < a[i-1].due {
			t.Fatalf("submit %d is due before its predecessor", i)
		}
		if s.due != a[i-i%burstSize].due {
			t.Fatalf("submit %d is not back-to-back with its burst", i)
		}
		if s.due < 0 || s.row < 0 || s.row >= 6 || s.tenant < 0 || s.tenant >= 3 {
			t.Fatalf("submit %d out of range: %+v", i, s)
		}
		if i%burstSize < burstSize-1 {
			rows[s.row]++
		}
	}
	// The request mix is the same for every seed, only its order is drawn:
	// every row is first seen equally often, and every burst is three
	// distinct rows followed by a repeat of one of them.
	for r := 0; r < 6; r++ {
		if rows[r] != len(a)/burstSize*(burstSize-1)/6 {
			t.Errorf("row %d leads %d times in %d bursts, want an equal share", r, rows[r], len(a)/burstSize)
		}
	}
	for b := 0; b < len(a); b += burstSize {
		x, y, z, dup := a[b].row, a[b+1].row, a[b+2].row, a[b+3].row
		if x == y || y == z || x == z || (dup != x && dup != y && dup != z) {
			t.Fatalf("burst %d is %d %d %d %d, want three distinct rows and a repeat", b/burstSize, x, y, z, dup)
		}
	}
}

func TestRotation(t *testing.T) {
	if !reflect.DeepEqual(rotation(7, 4), rotation(7, 4)) {
		t.Fatal("same seed, different rotation")
	}
	distinct := map[[4]int]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		var key [4]int
		seen := map[int]bool{}
		for i, v := range rotation(seed, 4) {
			key[i] = v
			seen[v] = true
		}
		if len(seen) != 4 {
			t.Fatalf("seed %d: %v is not a permutation of the rows", seed, key)
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Error("eight seeds drew one rotation")
	}
}

// TestStamp: every op's stamp is all non-zero bytes (the output check's byte
// accounting rests on it) and no two ops share one.
func TestStamp(t *testing.T) {
	seen := map[[stampLen]byte]bool{}
	for op := uint32(1); op < 200000; op += 7 {
		b := stampOf(op)
		for _, x := range b {
			if x == 0 {
				t.Fatalf("stamp of op %d has a zero byte: %x", op, b)
			}
		}
		if seen[b] {
			t.Fatalf("stamp of op %d repeats an earlier one: %x", op, b)
		}
		seen[b] = true
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables the program prints
// from in step: the file is `go run ./bench -describe`.
func TestBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the metric and workload tables; regenerate it with: go run ./bench -describe > BENCHMARK.json")
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics()...) {
		if names[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		names[d.name] = true
	}
	if n := len(perLayerMetrics()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

// smokeEnv is a short-run environment with the output check on.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	root := t.TempDir()
	if fsTypeOf("/dev/shm") == "tmpfs" {
		if dir, err := os.MkdirTemp("/dev/shm", "negativaml-bench-test-"); err == nil {
			t.Cleanup(func() { os.RemoveAll(dir) })
			root = dir
		}
	}
	check, err := newChecker(false)
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 1, dataRoot: root, fsType: fsTypeOf(root), outDir: t.TempDir(), check: check, checkEvery: 50, minSamples: 1, setupRuns: 1}
}

// TestSmoke runs every workload for half a second with the output check
// on, so harness rot or a changed public API fails tier-1 and not the next
// performance change.
func TestSmoke(t *testing.T) {
	e := smokeEnv(t)
	for _, w := range workloads() {
		res, err := e.run(w, 0.5, false)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed %v", w.name, res.failed, res.attempted, res.failures)
		}
		if res.invalid != "" {
			// A late generator spoils a measurement, not the harness: on a
			// loaded test machine, without spinners, it happens.
			t.Logf("%s: %s", w.name, res.invalid)
		}
		vals := res.endToEnd(res.calib.scale())
		for _, d := range endToEndMetrics {
			if v, ok := vals[d.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, d.name, v)
			}
		}
	}
}

// TestSmokeTraced runs the traced side on the three kinds of loop: per-layer
// metrics are complete, the invariants the issue names hold, and a span
// file is written.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("probes take a few seconds")
	}
	e := smokeEnv(t)
	for _, name := range []string{"warm_resubmit", "cluster_peer_warm", "gateway_open"} {
		w := workloadByName(name)
		res, err := e.run(w, 0.5, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d ops failed %v", name, res.failed, res.attempted, res.failures)
		}
		vals := res.perLayer()
		for _, d := range perLayerMetrics() {
			if v, ok := vals[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, d.name, v)
			}
		}
		if len(vals) != len(perLayerMetrics()) {
			t.Errorf("%s: %d per-layer values for %d declared metrics", name, len(vals), len(perLayerMetrics()))
		}
		if name != "gateway_open" {
			for _, st := range []string{"detect", "compact"} {
				if v := vals["dserve.stage."+st+".hit_ratio"]; v != 1 {
					t.Errorf("%s: %s hit ratio %v, want 1", name, st, v)
				}
			}
		}
		if name == "warm_resubmit" {
			for k, v := range vals {
				if len(k) > 8 && k[:8] == "cluster." && k != "cluster.rtt_us" && v != 0 {
					t.Errorf("single-node workload reports %s = %v", k, v)
				}
			}
		}
		if name == "cluster_peer_warm" && (vals["cluster.round_trips_per_op"] == 0 || vals["cluster.route.lookup-batch.calls_per_op"] == 0) {
			t.Errorf("peer-warm run saw no peer traffic: %v round trips, %v lookup-batch calls",
				vals["cluster.round_trips_per_op"], vals["cluster.route.lookup-batch.calls_per_op"])
		}
		if st, err := os.Stat(filepath.Join(e.outDir, name+".spans.json")); err != nil || st.Size() == 0 {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
}
