// Command bench is the repo's benchmark: seven steady-state workloads over
// inputs shaped like the paper's Table 1, eleven end-to-end metrics, and a
// traced run whose per-layer metrics and spans are all taken from outside
// the program — by timing calls into public functions and reading public
// accessors. See README.md beside this file.
//
//	go run ./bench -seed 1                      every workload, end-to-end metrics
//	go run ./bench -seed 1 -trace 1             … then the traced run of each
//	go run ./bench -workload cold_ingest -seed 3 -seconds 12 -trace 0
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// under -trace 0, the per-layer metrics under -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload and end with the result as one JSON line (default: all, as a table)")
		seed     = flag.Int64("seed", 1, "seed for row rotation, arrival schedule and request draws")
		seconds  = flag.Float64("seconds", runSeconds, "how long each run measures")
		trace    = flag.Int("trace", 0, "1: traced run (per-layer metrics, spans written to -out); 0: end-to-end metrics with tracing off")
		dataRoot = flag.String("data-root", "", "directory for data dirs (default: /dev/shm when it is a writable tmpfs, else .bench_build/data)")
		outDir   = flag.String("out", filepath.Join(".bench_build", "spans"), "directory for span files")
		update   = flag.Bool("update-golden", false, "record this run's output digests in "+goldenPath+" instead of checking against it")
		describe = flag.Bool("describe", false, "print BENCHMARK.json as the metric and workload tables define it, and exit")
		spinner  = flag.Bool("spinner", false, "internal: run as a keep-awake child of gateway_open")
	)
	flag.Parse()
	if *spinner {
		spin()
		return
	}
	if *describe {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	var todo []*workload
	if *name == "" {
		todo = workloads()
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}

	root, fsType, err := scratchDir(*dataRoot)
	if err != nil {
		fatal(err)
	}
	// Data dirs may live outside the checkout (tmpfs), so they are removed
	// on every way out, signals included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(root)
		os.Exit(130)
	}()
	e := &env{
		seed: *seed, dataRoot: root, fsType: fsType, outDir: *outDir,
		checkEvery: 50, minSamples: minSamplesPerRow, setupRuns: 5,
	}
	if exe, err := os.Executable(); err == nil {
		e.spinner = []string{exe, "-spinner"}
	}
	code := run(todo, *name != "", *trace == 1, *update, e, *seconds)
	os.RemoveAll(root)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run measures the workloads and prints their metrics. single is the
// driver's mode: one workload, one kind of run, and the JSON line last.
func run(todo []*workload, single, traced, update bool, e *env, seconds float64) int {
	var err error
	if e.check, err = newChecker(update); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("# seed %d, %g s per run, data dirs on %s (%s)\n", e.seed, seconds, e.dataRoot, e.fsType)
	code := 0
	for _, w := range todo {
		// The driver asks for one kind of run; a person gets the end-to-end
		// run and, with -trace 1, the traced one after it.
		kinds := []bool{false, true}
		switch {
		case !traced:
			kinds = kinds[:1]
		case single:
			kinds = kinds[1:]
		}
		for _, tr := range kinds {
			res, err := e.run(w, seconds, tr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			if !report(w, res, single) {
				code = 1
			}
		}
	}
	if update && code == 0 {
		if err := e.check.writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// report prints one run's metrics by name with their units and returns
// whether the run is usable: valid, and every output correct.
func report(w *workload, res *result, jsonLine bool) bool {
	defs, vals, raw := endToEndMetrics, map[string]float64(nil), map[string]float64(nil)
	kind := "end-to-end, times at reference speed with the raw reading beside them"
	switch {
	case res.traced:
		defs, vals = perLayerMetrics(), res.perLayer()
		kind = "per-layer (traced), times as read"
	default:
		vals, raw = res.endToEnd(res.calib.scale()), res.endToEnd(1)
	}
	fmt.Printf("\n## %s — %s; calibration unit %.4f ms (reference %.3f); samples %s\n", w.name, kind, res.calib.ms(), calibRefMS, res.rowCounts())
	for _, d := range defs {
		fmt.Printf("%-18s %-40s %16.6f %s", w.name, d.name, vals[d.name], d.unit)
		if r, ok := raw[d.name]; ok && r != vals[d.name] {
			fmt.Printf("   (raw %.6f)", r)
		}
		fmt.Println()
	}
	if !res.traced {
		fmt.Printf("%-18s %-40s %16.6f %s\n", w.name, "failed_share", 1-vals["ok_share"], "ratio")
	}
	if g := res.gw; g != nil {
		fmt.Printf("# open loop: sent %d, accepted %d, completed %d, shed %d, failed %d; generator lag p90 %.3f ms\n",
			g.sent, g.accepted, g.completed, g.shed, g.failed, percentile(g.lagMS, 0.9))
	}
	if res.traced {
		printSelfTimes(res.rec)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "bench: failed op:", f)
	}
	if res.invalid != "" {
		// An invalid run is not reported: no result line, non-zero exit.
		fmt.Fprintf(os.Stderr, "bench: %s: run invalid: %s\n", w.name, res.invalid)
		return false
	}
	correct := res.failed == 0
	if jsonLine {
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		out := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{correct, res.attempted, res.failed, map[string]value{}}
		for _, d := range defs {
			out.Metrics[d.name] = value{vals[d.name], d.unit}
		}
		blob, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return false
		}
		fmt.Printf("%s\n", blob)
	}
	return correct
}

// printSelfTimes prints, per layer, the self time per traced op and the
// share of op wall the child spans account for.
func printSelfTimes(rec *recorder) {
	self := rec.selfMSPerOp()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("# self time per traced op by layer (spans account for %.1f %% of op wall):\n", 100*rec.accounted())
	for _, l := range layers {
		fmt.Printf("#   %-14s %10.3f ms\n", l, self[l])
	}
}

// scratchDir picks and creates this run's scratch directory. The root disk
// of the sandbox is unusable as a timing source (fsync-bound numbers drift
// by integer factors within minutes), so data dirs default to tmpfs.
func scratchDir(root string) (dir, fsType string, err error) {
	if root == "" {
		root = filepath.Join(".bench_build", "data")
		if fsTypeOf("/dev/shm") == "tmpfs" {
			if probe, err := os.MkdirTemp("/dev/shm", "negativaml-bench-probe-"); err == nil {
				os.Remove(probe)
				root = "/dev/shm"
			}
		}
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(root, "negativaml-bench-")
	if err != nil {
		return "", "", err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return "", "", err
	}
	return dir, fsTypeOf(dir), nil
}

// fsTypeOf names the filesystem a path is on.
func fsTypeOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext2/3/4"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-%#x", uint32(st.Type))
}

// benchmarkJSON renders BENCHMARK.json from the workload and metric tables,
// so the file and the program cannot disagree.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndMetrics {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayerMetrics() {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(blob, '\n')
}
