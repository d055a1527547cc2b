// Command negativa-ml debloats the shared libraries of a generated ML
// framework installation against one workload, writing the compacted
// libraries to an output directory — the CLI face of the paper's pipeline.
//
// Usage:
//
//	negativa-ml -install ./pytorch-install -model MobileNetV2 -train \
//	            -batch 16 -epochs 3 -device T4 -out ./debloated
//
// -ingest replaces -install for trees this tool did not write (an unpacked
// wheel, a site-packages directory): files are classified by content, each
// shared object's DT_NEEDED edges are resolved into a dependency closure,
// and the closure debloats through the identical pipeline.
//
// The tool profiles the workload (kernel detector + CPU-function profiler),
// locates used code in every library, compacts, verifies the debloated
// install by re-running the workload, and prints a per-library report.
// Per-library locate/compact runs on the batch service's bounded worker
// pool; -jobs N sets the worker count (default: all CPUs).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/dserve"
	"negativaml/internal/ingest"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

func main() {
	installDir := flag.String("install", "", "framework install directory (from mlbloat-gen)")
	ingestDir := flag.String("ingest", "", "ingest an arbitrary on-disk tree (unpacked wheel / site-packages): classify files, resolve the DT_NEEDED closure, and debloat it")
	model := flag.String("model", "MobileNetV2", "model: MobileNetV2, Transformer, Llama2")
	train := flag.Bool("train", false, "train instead of inference")
	batch := flag.Int("batch", 1, "batch size")
	epochs := flag.Int("epochs", 1, "training epochs")
	device := flag.String("device", "T4", "GPU: T4, A100, H100")
	ranks := flag.Int("gpus", 1, "number of GPUs (tensor parallel for LLMs)")
	lazy := flag.Bool("lazy", false, "use lazy kernel loading")
	steps := flag.Int("steps", 50, "max profiled steps (0 = full dataset)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "concurrent locate/compact and verification workers")
	out := flag.String("out", "", "output directory for debloated libraries")
	dataDir := flag.String("data-dir", "", "persistent analysis store; repeat runs against the same install reuse profiles and locate/compact results instead of recomputing")
	diskMB := flag.Int64("disk-mb", 512, "persistent store byte budget in MiB (with -data-dir)")
	flag.Parse()
	if (*installDir == "") == (*ingestDir == "") {
		log.Fatal("negativa-ml: exactly one of -install or -ingest is required")
	}

	var install *mlframework.Install
	if *ingestDir != "" {
		res, err := ingest.Tree(*ingestDir, ingest.Options{})
		if err != nil {
			log.Fatalf("negativa-ml: ingest: %v", err)
		}
		classes := map[ingest.Class]int{}
		for _, fr := range res.Files {
			classes[fr.Class]++
		}
		fmt.Printf("ingested %s: %d files (", *ingestDir, len(res.Files))
		for i, c := range []ingest.Class{ingest.ClassSharedObject, ingest.ClassManifest, ingest.ClassScript, ingest.ClassData} {
			if i > 0 {
				fmt.Printf(", ")
			}
			fmt.Printf("%s %d", c, classes[c])
		}
		fmt.Printf(")\n")
		fmt.Printf("closure: %d of %d shared objects from roots %v\n", len(res.Closure), res.SharedObjects(), res.Roots)
		unresolved := make([]string, 0, len(res.Unresolved))
		for name := range res.Unresolved {
			unresolved = append(unresolved, name)
		}
		sort.Strings(unresolved)
		for _, name := range unresolved {
			fmt.Printf("unresolved (system-provided?): %s wanted by %v\n", name, res.Unresolved[name])
		}
		install, err = res.Install()
		if err != nil {
			log.Fatalf("negativa-ml: ingest: %v", err)
		}
	} else {
		var err error
		install, err = mlframework.ReadFrom(*installDir)
		if err != nil {
			log.Fatalf("negativa-ml: %v", err)
		}
	}

	// Model/dataset/device materialization is the batch service's
	// (one implementation shared with cmd/negativa-served job specs).
	spec := dserve.WorkloadSpec{
		Model:  *model,
		Train:  *train,
		Batch:  *batch,
		Epochs: *epochs,
		Device: *device,
		GPUs:   *ranks,
		Lazy:   *lazy,
	}
	w, err := spec.Workload(install)
	if err != nil {
		log.Fatalf("negativa-ml: %v", err)
	}
	w.Name = fmt.Sprintf("%s/%s/%s", install.Framework, w.Graph.Mode(), *model)

	// Route through the batch service's bounded worker-pool executor:
	// locate/compact fan out across -jobs goroutines per library.
	maxSteps := *steps
	if maxSteps == 0 {
		maxSteps = -1 // BatchOptions: negative = full dataset
	}
	cfg := dserve.Config{Workers: *jobs}
	if *dataDir != "" {
		store, err := castore.Open(*dataDir, castore.Options{MaxBytes: *diskMB << 20})
		if err != nil {
			log.Fatalf("negativa-ml: %v", err)
		}
		defer store.Close()
		cfg.Store = store
	}
	svc := dserve.NewService(cfg)
	defer svc.Close()

	start := time.Now()
	res, err := svc.DebloatBatch(install, []mlruntime.Workload{w}, dserve.BatchOptions{MaxSteps: maxSteps})
	if err != nil {
		log.Fatalf("negativa-ml: %v", err)
	}

	agg := res.Aggregate()
	fmt.Printf("workload: %s\n", w.Name)
	fmt.Printf("libraries: %d  verified: %v  jobs: %d  wall time: %v\n", agg.Libs, res.AllVerified(), svc.Workers(), time.Since(start).Round(time.Millisecond))
	fmt.Printf("total size:  %8.0f KB  -> %8.0f KB  (-%.0f%%)\n",
		float64(agg.FileEffective)/1024, float64(agg.FileEffectiveAfter)/1024, agg.FileReductionPct())
	fmt.Printf("CPU code:    %8.0f KB  -> %8.0f KB  (-%.0f%%)   functions %d -> %d (-%.0f%%)\n",
		float64(agg.CPUSize)/1024, float64(agg.CPUSizeAfter)/1024, agg.CPUReductionPct(),
		agg.Funcs, agg.FuncsKept, agg.FuncReductionPct())
	fmt.Printf("GPU code:    %8.0f KB  -> %8.0f KB  (-%.0f%%)   elements  %d -> %d (-%.0f%%)\n",
		float64(agg.GPUSize)/1024, float64(agg.GPUSizeAfter)/1024, agg.GPUReductionPct(),
		agg.Elems, agg.ElemsKept, agg.ElemReductionPct())
	fmt.Printf("virtual end-to-end debloating time: %.0f s (detect %.0f s + analyze %.0f s)\n",
		res.EndToEnd().Seconds(), res.DetectTime.Seconds(), res.AnalysisTime.Seconds())
	if st := svc.Store(); st != nil {
		stats := st.Stats()
		fmt.Printf("store: %d objects, %.1f MiB, %d hits / %d misses (profiles reused: %d)\n",
			stats.Objects, float64(stats.Bytes)/(1<<20), stats.Hits, stats.Misses, res.ProfileReuses)
	}
	// Per-stage memoization outcomes of the analysis plan: a repeat run
	// against a warm -data-dir shows every stage absorbed (all hits).
	fmt.Printf("stages:")
	for _, st := range []string{negativa.StageDetect, negativa.StageCompact, negativa.StageVerifyRun} {
		fmt.Printf("  %s %d/%d", st,
			svc.Counters.Get("stage."+st+".hits"),
			svc.Counters.Get("stage."+st+".hits")+svc.Counters.Get("stage."+st+".misses"))
	}
	fmt.Printf("  (hits/total)\n")

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatalf("negativa-ml: %v", err)
		}
		// Stream each sparse image straight to disk — no full in-memory
		// materialization of the debloated install.
		for _, lr := range res.Libs {
			f, err := os.OpenFile(filepath.Join(*out, lr.Name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
			if err != nil {
				log.Fatalf("negativa-ml: write %s: %v", lr.Name, err)
			}
			_, werr := lr.Sparse.WriteTo(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				log.Fatalf("negativa-ml: write %s: %v", lr.Name, werr)
			}
		}
		fmt.Printf("debloated libraries written to %s\n", *out)
	}
}
