package negativa

import (
	"fmt"
	"runtime"
	"time"

	"negativaml/internal/gpuarch"
	"negativaml/internal/mlruntime"
	"negativaml/internal/plan"
)

// Analysis cost constants (virtual time). Function and element counts are
// generated at 1/100 and ~1/10 of the paper's, so per-item costs are scaled
// up to land end-to-end times near Table 8 (the scale is
// internal/mlframework's).
const (
	locatePerFunc    = 48 * time.Millisecond
	locatePerElement = 18 * time.Millisecond
	compactPerKB     = 400 * time.Microsecond
)

// Options configure a Debloat run.
type Options struct {
	// MaxSteps caps the detection and verification runs (0 = full dataset).
	// Usage coverage saturates within the first steps; timing-sensitive
	// experiments run uncapped.
	MaxSteps int
	// VerifySteps, when non-zero and different from MaxSteps, caps the
	// verification run separately; a capped original run is then executed
	// to obtain a comparable reference digest (detection stays uncapped so
	// Table 8 timing is faithful, while verification stays cheap).
	VerifySteps int
	// SkipVerify skips the verification re-run.
	SkipVerify bool
	// Workers bounds the stage plan's concurrently executing nodes
	// (default runtime.NumCPU()). Independent stages — per-library
	// compaction, the capped reference run, the verification re-run —
	// overlap up to this width.
	Workers int
}

// Result is the full pipeline output for one workload.
type Result struct {
	Workload string
	Profile  *Profile
	// Libs holds one report per shared library, in install load order.
	Libs []*LibraryReport

	// byName indexes Libs by library name; built once at pipeline end by
	// IndexLibs so verification's per-library lookups are O(1) rather than
	// rebuilt-per-call linear scans.
	byName map[string]*LibraryReport

	// DetectTime is the profiled run's virtual time (includes detector
	// overhead), AnalysisTime the locate+compact virtual time; EndToEnd is
	// their sum — the paper's Table 8 metric.
	DetectTime   time.Duration
	AnalysisTime time.Duration
	EndToEnd     time.Duration

	// Verified reports whether the debloated re-run reproduced the original
	// output digest. VerifyResult holds the re-run's metrics.
	Verified     bool
	VerifyResult *mlruntime.Result
}

// DebloatedLibs materializes the compacted images keyed by library name.
// Images are built lazily at call time — holding a Result costs O(ranges),
// not O(install-size).
func (r *Result) DebloatedLibs() map[string][]byte {
	out := make(map[string][]byte, len(r.Libs))
	for _, lr := range r.Libs {
		out[lr.Name] = lr.Debloated()
	}
	return out
}

// IndexLibs (re)builds the by-name report index. The pipeline calls it once
// after assembling Libs; callers constructing a Result by hand may call it
// or rely on Lib's linear fallback.
func (r *Result) IndexLibs() {
	r.byName = make(map[string]*LibraryReport, len(r.Libs))
	for _, lr := range r.Libs {
		r.byName[lr.Name] = lr
	}
}

// Lib returns the report for the named library, or nil.
func (r *Result) Lib(name string) *LibraryReport {
	if r.byName != nil {
		return r.byName[name]
	}
	for _, lr := range r.Libs {
		if lr.Name == name {
			return lr
		}
	}
	return nil
}

// DeviceArchs returns the distinct GPU architectures of a device set in
// first-seen order — the architecture filter the locator applies (Reason I
// removal, §3.2).
func DeviceArchs(devices []gpuarch.Device) []gpuarch.SM {
	archSet := map[gpuarch.SM]bool{}
	var archs []gpuarch.SM
	for _, dev := range devices {
		if !archSet[dev.Arch] {
			archSet[dev.Arch] = true
			archs = append(archs, dev.Arch)
		}
	}
	return archs
}

// LibDebloat is the locate+compact output for a single library: the report
// (including the compacted image) and the virtual analysis time the two
// stages cost. It is the unit of work the batch service parallelizes and
// caches content-addressed — the result depends only on the library bytes,
// the used-symbol sets, and the target architectures.
type LibDebloat struct {
	Report   *LibraryReport
	Analysis time.Duration
}

// Debloat runs the full Negativa-ML pipeline on a workload: a Batch of one
// member, whose union is the member's own profile. The result is
// byte-identical to the pre-planner monolithic pipeline — the golden
// equivalence suite holds the two implementations together.
func Debloat(w mlruntime.Workload, opt Options) (*Result, error) {
	return debloat(w, opt, nil)
}

// debloat is Debloat over a stage memo: every node carries a
// content-derived key, so repeat runs over one memo absorb unchanged
// stages. A nil memo computes every node.
func debloat(w mlruntime.Workload, opt Options, memo plan.Memo) (*Result, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	b := NewBatch(w.Install, []mlruntime.Workload{w}, opt.MaxSteps)
	b.VerifySteps = opt.VerifySteps
	b.Verify = []bool{!opt.SkipVerify}
	run, err := b.Run(plan.NewPool(workers), memo, nil, nil)
	if err != nil {
		return nil, err
	}

	// ---- Assembly: fold node values into the monolith's exact Result. ----
	profile, _ := run.Profile(0)
	res := &Result{
		Workload:   w.Name,
		Profile:    profile,
		DetectTime: profile.RunResult.ExecTime,
		Libs:       make([]*LibraryReport, len(w.Install.LibNames)),
	}
	for i := range res.Libs {
		// Virtual analysis time is charged per library whether or not the
		// stage memo absorbed the work — Debloat models the paper's
		// single-tool cost; hit accounting is the batch service's concern.
		var analysis time.Duration
		res.Libs[i], analysis, _, _ = run.Lib(i)
		res.AnalysisTime += analysis
	}
	res.IndexLibs()
	res.EndToEnd = res.DetectTime + res.AnalysisTime
	res.VerifyResult, res.Verified = run.Verify(0)
	return res, nil
}

// debloatMonolith is the pre-planner serial pipeline, kept as the golden
// reference implementation: the equivalence suite asserts Debloat's staged
// plan produces a byte-identical Result. It must not grow features — only
// mirror what the planner is required to reproduce.
func debloatMonolith(w mlruntime.Workload, opt Options) (*Result, error) {
	profile, err := DetectUsage(w, opt.MaxSteps)
	if err != nil {
		return nil, fmt.Errorf("negativa: detection: %w", err)
	}
	archs := DeviceArchs(w.Devices)

	res := &Result{
		Workload:   w.Name,
		Profile:    profile,
		DetectTime: profile.RunResult.ExecTime,
	}

	var analysis time.Duration
	for _, name := range w.Install.LibNames {
		lib := w.Install.Library(name)
		ld, err := LocateAndCompactLib(lib, profile.UsedFuncs[name], profile.UsedKernels[name], archs)
		if err != nil {
			return nil, fmt.Errorf("negativa: locate %s: %w", name, err)
		}
		res.Libs = append(res.Libs, ld.Report)
		analysis += ld.Analysis
	}
	res.IndexLibs()
	res.AnalysisTime = analysis
	res.EndToEnd = res.DetectTime + res.AnalysisTime

	if !opt.SkipVerify {
		steps := opt.VerifySteps
		if steps == 0 {
			steps = opt.MaxSteps
		}
		refDigest := profile.RunResult.Digest
		if steps != opt.MaxSteps {
			ref, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: steps})
			if err != nil {
				return nil, fmt.Errorf("negativa: reference run failed: %w", err)
			}
			refDigest = ref.Digest
		}
		clone, err := w.Install.CloneWithLibs(res.DebloatedLibs())
		if err != nil {
			return nil, fmt.Errorf("negativa: verify: %w", err)
		}
		vw := w
		vw.Install = clone
		vr, err := mlruntime.Run(vw, mlruntime.Options{MaxSteps: steps})
		if err != nil {
			return nil, fmt.Errorf("negativa: verification run failed: %w", err)
		}
		res.VerifyResult = vr
		res.Verified = vr.Digest == refDigest
	}
	return res, nil
}

// Totals aggregates reports across libraries (one Table 2 row).
type Totals struct {
	Libs               int
	FileEffective      int64
	FileEffectiveAfter int64
	CPUSize            int64
	CPUSizeAfter       int64
	Funcs              int
	FuncsKept          int
	GPUSize            int64
	GPUSizeAfter       int64
	Elems              int
	ElemsKept          int
}

// Aggregate sums the per-library reports.
func (r *Result) Aggregate() Totals {
	var t Totals
	t.Libs = len(r.Libs)
	for _, lr := range r.Libs {
		t.FileEffective += lr.FileEffective
		t.FileEffectiveAfter += lr.FileEffectiveAfter
		t.CPUSize += lr.CPUSize
		t.CPUSizeAfter += lr.CPUSizeAfter
		t.Funcs += lr.FuncCount
		t.FuncsKept += lr.FuncKept
		t.GPUSize += lr.GPUSize
		t.GPUSizeAfter += lr.GPUSizeAfter
		t.Elems += lr.ElemCount
		t.ElemsKept += lr.ElemKept
	}
	return t
}

// FileReductionPct, CPU/GPU and count reductions for the aggregate.
func (t Totals) FileReductionPct() float64 { return pct(t.FileEffective, t.FileEffectiveAfter) }

// CPUReductionPct is the aggregate CPU-code size reduction.
func (t Totals) CPUReductionPct() float64 { return pct(t.CPUSize, t.CPUSizeAfter) }

// FuncReductionPct is the aggregate function-count reduction.
func (t Totals) FuncReductionPct() float64 { return pct(int64(t.Funcs), int64(t.FuncsKept)) }

// GPUReductionPct is the aggregate GPU-code size reduction.
func (t Totals) GPUReductionPct() float64 { return pct(t.GPUSize, t.GPUSizeAfter) }

// ElemReductionPct is the aggregate element-count reduction.
func (t Totals) ElemReductionPct() float64 { return pct(int64(t.Elems), int64(t.ElemsKept)) }
