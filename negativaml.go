// Package negativaml is a Go reproduction of Negativa-ML, the debloating
// tool for machine-learning shared libraries from "The Hidden Bloat in
// Machine Learning Systems" (Zhang & Ali-Eldin, MLSys 2025).
//
// Negativa-ML removes the code an ML workload never uses from the
// framework's shared libraries — both host (CPU) code in .text and device
// (GPU) code in the .nv_fatbin section. The pipeline:
//
//  1. Detection: run the workload once with a CUPTI hook on
//     cuModuleGetFunction; every CPU-launching kernel passes through it
//     exactly once, so the hook yields the used-kernel set at a fraction of
//     a profiler's overhead. A function-call hook records used CPU
//     functions.
//  2. Location: map used kernels to the cubins containing them and cubins
//     to fatbin elements with file ranges; retain an element only when its
//     compute-capability matches the device and it holds a used kernel.
//     Used CPU functions map to .text ranges via the symbol table.
//  3. Compaction: zero all unretained ranges in place, preserving every
//     offset so the library stays loadable.
//  4. Verification: re-run the workload on the debloated libraries and
//     compare output digests.
//
// The hardware and proprietary-binary substrate the paper measured against
// is simulated (docs/ARCHITECTURE.md, Layers): generated ELF libraries with planted
// fatbins, a CUDA driver simulator with eager/lazy loading and a virtual
// clock, synthetic PyTorch/TensorFlow/vLLM/Transformers installs, and
// op-graph workloads for MobileNetV2, a Transformer, Llama2, and the Open
// LLM Leaderboard zoo. Every table and figure of the paper's evaluation is
// regenerated by the benchmarks in this package and by cmd/experiments.
//
// # Batch service
//
// Beyond the paper's single-workload pipeline, the package exposes the
// concurrent batch-debloat service (internal/dserve, served over HTTP by
// cmd/negativa-served): one install is debloated against the union of many
// workloads' detection profiles, so a single compacted install safely
// serves the whole set — verified against every member's output digest.
// Detection profiles are reused across jobs through a registry keyed by
// (install fingerprint, workload identity); per-library locate/compact
// results are cached content-addressed (SHA-256 of library bytes +
// used-symbol sets), so identical dependency-tail libraries shared across
// installs are analyzed once; all per-library and per-workload work fans
// out over a bounded worker pool.
//
//	svc := negativaml.NewBatchService(negativaml.BatchServiceConfig{Workers: 8})
//	defer svc.Close()
//	res, _ := svc.DebloatBatch(install, []negativaml.Workload{w1, w2, w3, w4},
//		negativaml.BatchOptions{MaxSteps: 4})
//	fmt.Println(res.AllVerified(), res.CacheHits)
//
// Quick start:
//
//	install, _ := negativaml.GenerateInstall(negativaml.PyTorch, 20)
//	w := negativaml.Workload{
//		Name:    "PyTorch/Inference/MobileNetV2",
//		Install: install,
//		Graph:   negativaml.MobileNetV2(false, 1),
//		Devices: []negativaml.Device{negativaml.T4},
//		Data:    negativaml.CIFAR10,
//		PerItemCompute: 50 * time.Millisecond,
//	}
//	res, _ := negativaml.Debloat(w, negativaml.DebloatOptions{MaxSteps: 1})
//	fmt.Println(res.Aggregate().GPUReductionPct())
package negativaml

import (
	"net/http"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/dserve"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/models"
	"negativaml/internal/negativa"
)

// Framework identifiers (Table 1).
const (
	PyTorch        = mlframework.PyTorch
	TensorFlow     = mlframework.TensorFlow
	VLLM           = mlframework.VLLM
	HFTransformers = mlframework.HFTransformers
)

// Re-exported core types. The facade keeps downstream imports to a single
// package while the implementation lives in internal/.
type (
	// Install is a generated framework installation.
	Install = mlframework.Install
	// Workload binds an install, a model graph, datasets and devices.
	Workload = mlruntime.Workload
	// RunOptions configures a workload run.
	RunOptions = mlruntime.Options
	// RunResult is a workload run's metrics and output digest.
	RunResult = mlruntime.Result
	// Graph is a model operator graph.
	Graph = models.Graph
	// Device is a GPU device model.
	Device = gpuarch.Device
	// Dataset is a synthetic dataset.
	Dataset = dataset.Dataset
	// DebloatOptions configures the pipeline.
	DebloatOptions = negativa.Options
	// DebloatResult is the pipeline output (per-library reports, timings,
	// verification).
	DebloatResult = negativa.Result
	// LibraryReport is the before/after state of one library.
	LibraryReport = negativa.LibraryReport
	// UsageProfile is the detection phase output.
	UsageProfile = negativa.Profile
	// LoadMode selects eager or lazy kernel loading.
	LoadMode = cudasim.LoadMode
)

// Device catalog and loading modes.
var (
	T4   = gpuarch.T4
	A100 = gpuarch.A100
	H100 = gpuarch.H100
)

// Loading modes.
const (
	EagerLoading = cudasim.EagerLoading
	LazyLoading  = cudasim.LazyLoading
)

// Datasets of Table 1.
var (
	CIFAR10     = dataset.CIFAR10
	Multi30k    = dataset.Multi30k
	WMT14       = dataset.WMT14
	ManualInput = dataset.ManualInput
)

// GenerateInstall builds a synthetic framework installation with the given
// dependency-tail size.
func GenerateInstall(framework string, tailLibs int) (*Install, error) {
	return mlframework.Generate(mlframework.Config{Framework: framework, TailLibs: tailLibs})
}

// MobileNetV2 builds the small CV model graph (4.3M parameters).
func MobileNetV2(train bool, batch int) *Graph { return models.MobileNetV2(train, batch) }

// Transformer builds the medium NLP model graph (65M parameters).
func Transformer(train bool, batch int) *Graph { return models.Transformer(train, batch) }

// Llama2 builds the Llama-2-7b inference graph; pagedKV selects vLLM-style
// paged attention, ranks the tensor-parallel degree.
func Llama2(pagedKV bool, ranks int) *Graph { return models.LLM(models.Llama2(pagedKV, ranks)) }

// RunWorkload executes a workload on the simulated driver.
func RunWorkload(w Workload, opt RunOptions) (*RunResult, error) { return mlruntime.Run(w, opt) }

// DetectUsage runs the detection phase only.
func DetectUsage(w Workload, maxSteps int) (*UsageProfile, error) {
	return negativa.DetectUsage(w, maxSteps)
}

// Debloat runs the full Negativa-ML pipeline: detect, locate, compact,
// verify.
func Debloat(w Workload, opt DebloatOptions) (*DebloatResult, error) {
	return negativa.Debloat(w, opt)
}

// UsedBloatReport classifies used CPU functions into init-only (used-bloat
// candidates, the paper's §5 future work) and steady-state.
type UsedBloatReport = negativa.UsedBloatReport

// AnalyzeUsedBloat runs the workload with a phase-aware profiler and
// classifies every used CPU function.
func AnalyzeUsedBloat(w Workload, maxSteps int) (*UsedBloatReport, error) {
	return negativa.AnalyzeUsedBloat(w, maxSteps)
}

// Batch-service re-exports (internal/dserve): union debloating of one
// install against many workloads, with profile and result reuse.
type (
	// BatchService is the concurrent batch-debloat service core.
	BatchService = dserve.Service
	// BatchServiceConfig sizes the service (workers, cache, default steps).
	BatchServiceConfig = dserve.Config
	// BatchOptions configure one batch (step cap, verification).
	BatchOptions = dserve.BatchOptions
	// BatchResult is one batch's output: union profile, per-library
	// reports, per-member verification, cache and timing accounting.
	BatchResult = dserve.BatchResult
	// BatchJobRequest is the HTTP job submission body.
	BatchJobRequest = dserve.JobRequest
	// BatchWorkloadSpec describes one member workload of a job request.
	BatchWorkloadSpec = dserve.WorkloadSpec
	// BatchIncrementalStats summarizes what an incremental batch absorbed
	// from its base job.
	BatchIncrementalStats = dserve.IncrementalStats
)

// NewBatchService builds a batch-debloat service; Close it to drain.
func NewBatchService(cfg BatchServiceConfig) *BatchService { return dserve.NewService(cfg) }

// NewBatchHandler returns the service's HTTP API — the handler
// cmd/negativa-served listens with.
func NewBatchHandler(s *BatchService) http.Handler { return dserve.NewHandler(s) }

// MergeProfiles computes the union of detection profiles: per library, the
// union of used kernels and CPU functions. An install debloated against
// the union serves every merged workload.
func MergeProfiles(profiles ...*UsageProfile) *UsageProfile {
	return negativa.MergeProfiles(profiles...)
}

// DebloatBatch union-debloats the workloads' shared install with a
// throwaway batch service (no cross-batch reuse). Long-lived callers
// should hold a BatchService instead.
func DebloatBatch(workloads []Workload, opt BatchOptions) (*BatchResult, error) {
	svc := NewBatchService(BatchServiceConfig{})
	defer svc.Close()
	var in *Install
	if len(workloads) > 0 {
		in = workloads[0].Install
	}
	return svc.DebloatBatch(in, workloads, opt)
}
