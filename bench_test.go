package negativaml

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4). Each benchmark regenerates its artifact through the
// experiment suite and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. The rendered rows are printed by
// cmd/experiments.

import (
	"sync"
	"testing"

	"negativaml/internal/experiments"
)

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
// (internal/negativa/ablation.go): whole-cubin retention keeps more bytes but preserves
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
