package mlruntime

import (
	"fmt"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/models"
)

// Workload binds a framework install, a model graph, a dataset, and a
// device setup — one row of the paper's Table 1.
type Workload struct {
	// Name labels the workload ("PyTorch/Train/MobileNetV2").
	Name    string
	Install *mlframework.Install
	Graph   *models.Graph
	// Devices are the GPUs; more than one means tensor-parallel execution
	// with one rank per device.
	Devices []gpuarch.Device
	// Mode selects eager or lazy kernel loading.
	Mode cudasim.LoadMode
	// Data is the dataset; Epochs applies to training graphs.
	Data   dataset.Dataset
	Epochs int
	// PerItemCompute is the calibrated virtual compute time per batch item
	// per unit of op weight (set per workload in internal/experiments).
	PerItemCompute time.Duration
}

// Options tweak a run.
type Options struct {
	// DriverSetup runs before any library is loaded; tools attach CUPTI
	// subscribers here.
	DriverSetup func(*cudasim.Driver)
	// FuncHook observes every CPU library function call (the CPU-side
	// profiler of Negativa's detection phase).
	FuncHook func(lib, fn string)
	// PhaseHook, when set, is called at run-phase transitions with "init"
	// before framework initialization and "steps" before the first step —
	// the used-bloat analyzer uses it to separate init-only functions from
	// steady-state ones.
	PhaseHook func(phase string)
	// MaxSteps caps the step count (0 = run the full dataset). Detection
	// coverage is complete after the first steps, so tests use small caps.
	MaxSteps int
}

// Result summarizes a run.
type Result struct {
	// Digest is the deterministic output digest; original and debloated
	// runs must produce identical digests.
	Digest uint64
	// ExecTime is the virtual wall-clock of the run.
	ExecTime time.Duration
	// PeakCPUBytes / PeakGPUBytes are peak memory (GPU: max across devices).
	PeakCPUBytes int64
	PeakGPUBytes int64
	// Steps and Launches count executed work.
	Steps    int
	Launches int64
}

// RetainedBytes models the heap a cached result pins: six 8-byte fields.
func (r *Result) RetainedBytes() int64 { return 48 }

// Cost constants local to the runtime layer.
const (
	funcCallCost      = 300 * time.Nanosecond
	weightCopyPerByte = 700 * time.Nanosecond
	stepOverhead      = 120 * time.Microsecond
)

const fnvPrime = 1099511628211

// Run executes the workload and returns its result. A missing CPU function
// (zeroed by over-aggressive compaction) or an unresolvable kernel fails the
// run — exactly how a broken debloated library fails in practice.
func Run(w Workload, opt Options) (*Result, error) {
	if len(w.Devices) == 0 {
		return nil, fmt.Errorf("mlruntime: %s: no devices", w.Name)
	}
	if w.Graph == nil || w.Install == nil {
		return nil, fmt.Errorf("mlruntime: %s: incomplete workload", w.Name)
	}

	d := cudasim.NewDefault()
	if opt.DriverSetup != nil {
		opt.DriverSetup(d)
	}
	var ctxs []*cudasim.Context
	for _, dev := range w.Devices {
		ctxs = append(ctxs, d.NewContext(dev, w.Mode))
	}

	// ---- Library loading (framework import) ----
	type libState struct {
		facts *elfx.LoadFacts
		mods  []*cudasim.Module
	}
	libs := make(map[string]*libState, len(w.Install.LibNames))
	for _, name := range w.Install.LibNames {
		lib := w.Install.Library(name)
		st := &libState{facts: lib.LoadFacts()}
		for _, ctx := range ctxs {
			m, err := ctx.LoadModule(lib)
			if err != nil {
				return nil, fmt.Errorf("mlruntime: %s: %w", w.Name, err)
			}
			st.mods = append(st.mods, m)
		}
		libs[name] = st
	}

	digest := uint64(1469598103934665603)
	mix := func(v uint64) { digest = (digest ^ v) * fnvPrime }
	mixs := func(s string) {
		for i := 0; i < len(s); i++ {
			digest = (digest ^ uint64(s[i])) * fnvPrime
		}
	}

	callFunc := func(lf mlframework.LibFunc) error {
		st := libs[lf.Lib]
		if st == nil {
			return fmt.Errorf("mlruntime: %s: missing library %s", w.Name, lf.Lib)
		}
		if !st.facts.Alive(lf.Func) {
			return fmt.Errorf("mlruntime: %s: function %s in %s is missing or zeroed (SIGSEGV)", w.Name, lf.Func, lf.Lib)
		}
		if opt.FuncHook != nil {
			opt.FuncHook(lf.Lib, lf.Func)
		}
		d.Clock.Advance(funcCallCost)
		return nil
	}

	// ---- Framework init ----
	if opt.PhaseHook != nil {
		opt.PhaseHook("init")
	}
	d.AllocCPU(w.Install.BaseHeapCPU + w.Graph.HeapCPU + w.Data.ItemBytes*int64(w.Graph.Batch))
	for _, c := range w.Install.InitCalls {
		if err := callFunc(c); err != nil {
			return nil, err
		}
	}

	// ---- Weights, optimizer state, preallocation pools ----
	// Weights are staged through the host in chunks (an eighth of the model
	// at a time), so host peak reflects the staging buffer, not a full copy.
	nDev := int64(len(ctxs))
	staging := w.Graph.WeightBytes / 8
	if staging < 1 {
		staging = w.Graph.WeightBytes
	}
	d.AllocCPU(staging)
	perDevWeights := w.Graph.WeightBytes / nDev
	for _, ctx := range ctxs {
		ctx.AllocGPU(perDevWeights)
	}
	d.Clock.Advance(time.Duration(w.Graph.WeightBytes) * weightCopyPerByte)
	d.FreeCPU(staging)
	if w.Graph.Train && w.Graph.OptimizerStateFactor > 0 {
		for _, ctx := range ctxs {
			ctx.AllocGPU(int64(float64(perDevWeights) * w.Graph.OptimizerStateFactor))
		}
	}
	if f := w.Install.GPUPoolFraction; f > 0 {
		for _, ctx := range ctxs {
			pool := int64(f*float64(ctx.Device.MemBytes)) - ctx.GPU.Cur
			if pool > 0 {
				ctx.AllocGPU(pool)
			}
		}
	}

	// ---- Resolve kernels (first use) and autotune ----
	type resolved struct {
		op  *models.Op
		fns []*cudasim.Function // one per rank
	}
	plan := make([]resolved, 0, len(w.Graph.Ops))
	for i := range w.Graph.Ops {
		op := &w.Graph.Ops[i]
		hostLib, ok := w.Install.FamilyLib[op.Family]
		if !ok {
			return nil, fmt.Errorf("mlruntime: %s: no library hosts family %q", w.Name, op.Family)
		}
		st := libs[hostLib]
		r := resolved{op: op}
		for rank, ctx := range ctxs {
			m := st.mods[rank]
			kname := op.KernelFor(ctx.Device.Arch, rank)
			// Frameworks probe autotune candidates before resolving the
			// winner; candidates pass through cuModuleGetFunction (and are
			// therefore detected as used) but are launched at most once.
			for _, cand := range op.AutotuneKernels(ctx.Device.Arch, rank) {
				if _, err := m.GetFunction(cand); err != nil {
					return nil, fmt.Errorf("mlruntime: %s: autotune %s: %w", w.Name, cand, err)
				}
			}
			fn, err := m.GetFunction(kname)
			if err != nil {
				return nil, fmt.Errorf("mlruntime: %s: %w", w.Name, err)
			}
			r.fns = append(r.fns, fn)
			mixs(kname)
		}
		plan = append(plan, r)
	}

	// ---- Steps ----
	steps := w.Data.Steps(w.Graph.Train, w.Graph.Batch, w.Epochs)
	if opt.MaxSteps > 0 && steps > opt.MaxSteps {
		steps = opt.MaxSteps
	}
	totalWeight := w.Graph.TotalWeight()
	if totalWeight <= 0 {
		totalWeight = 1
	}
	computeFor := make([]time.Duration, len(plan))
	for i, r := range plan {
		computeFor[i] = time.Duration(float64(w.PerItemCompute) * float64(w.Graph.Batch) * r.op.Weight / totalWeight)
	}
	// Activations live inside the preallocation pool when the framework has
	// one (TensorFlow's allocator, vLLM's KV-cache pool), so they only add
	// to peak GPU memory on frameworks without a pool.
	actPerDev := w.Graph.ActivationBytesPerItem * int64(w.Graph.Batch) / nDev
	if w.Install.GPUPoolFraction > 0 {
		actPerDev = 0
	}

	famCalls := make([][]mlframework.LibFunc, len(plan))
	for i, r := range plan {
		famCalls[i] = w.Install.FamilyCalls[r.op.Family]
	}

	if opt.PhaseHook != nil {
		opt.PhaseHook("steps")
	}
	for s := 0; s < steps; s++ {
		for _, ctx := range ctxs {
			ctx.AllocGPU(actPerDev)
		}
		for i, r := range plan {
			for _, lf := range famCalls[i] {
				if err := callFunc(lf); err != nil {
					return nil, err
				}
			}
			for rank := range ctxs {
				fn := r.fns[rank]
				for c := 0; c < r.op.Count; c++ {
					if err := d.Launch(fn); err != nil {
						return nil, fmt.Errorf("mlruntime: %s: %w", w.Name, err)
					}
				}
			}
			d.Clock.Advance(computeFor[i])
		}
		mix(w.Data.ItemDigest(s * w.Graph.Batch))
		d.Clock.Advance(stepOverhead)
		for _, ctx := range ctxs {
			ctx.FreeGPU(actPerDev)
		}
	}

	var peakGPU int64
	for _, ctx := range ctxs {
		if ctx.GPU.Peak > peakGPU {
			peakGPU = ctx.GPU.Peak
		}
	}
	return &Result{
		Digest:       digest,
		ExecTime:     d.Clock.Now(),
		PeakCPUBytes: d.CPU.Peak,
		PeakGPUBytes: peakGPU,
		Steps:        steps,
		Launches:     d.KernelLaunch,
	}, nil
}
