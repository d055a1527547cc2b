package mlruntime_test

import (
	"testing"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/dataset"
	"negativaml/internal/gpuarch"
	"negativaml/internal/mlframework"
	"negativaml/internal/mlruntime"
	"negativaml/internal/models"
	"negativaml/internal/negativa"
)

// frameworkWorkload is one member workload of a generated install of fw.
func frameworkWorkload(t testing.TB, fw string, tail int) mlruntime.Workload {
	t.Helper()
	in, err := mlframework.Generate(mlframework.Config{Framework: fw, TailLibs: tail})
	if err != nil {
		t.Fatal(err)
	}
	graph, data := models.MobileNetV2(true, 16), dataset.CIFAR10
	switch fw {
	case mlframework.VLLM:
		graph, data = models.LLM(models.Llama2(true, 1)), dataset.ManualInput
	case mlframework.HFTransformers:
		graph, data = models.LLM(models.Llama2(false, 1)), dataset.ManualInput
	}
	return mlruntime.Workload{
		Name:           fw,
		Install:        in,
		Graph:          graph,
		Devices:        []gpuarch.Device{gpuarch.T4},
		Data:           data,
		Epochs:         1,
		PerItemCompute: 100 * time.Microsecond,
	}
}

// debloatedClone debloats w and returns the install verification runs on.
func debloatedClone(t testing.TB, w mlruntime.Workload) *mlframework.Install {
	t.Helper()
	res, err := negativa.Debloat(w, negativa.Options{MaxSteps: 2, VerifySteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	clone, err := w.Install.CloneWithLibs(res.DebloatedLibs())
	if err != nil {
		t.Fatal(err)
	}
	return clone
}

// reparsed returns a copy of in whose every library is parsed anew from a
// copy of its bytes, indexed or not.
func reparsed(t *testing.T, in *mlframework.Install, index bool) *mlframework.Install {
	t.Helper()
	libs := make(map[string][]byte, len(in.LibNames))
	for _, name := range in.LibNames {
		libs[name] = append([]byte(nil), in.Library(name).Data...)
	}
	out, err := in.CloneWithLibs(libs)
	if err != nil {
		t.Fatal(err)
	}
	if index {
		for _, name := range out.LibNames {
			out.Library(name).Index()
		}
	}
	return out
}

// TestLoadFactsSourcesAgree loads every library of each framework's install,
// and of a debloated clone, twice: once indexed, so its load facts come from
// the index's prefix sum, and once unindexed, so they come from a scan of
// its bytes. Both must load and run identically in both load modes.
func TestLoadFactsSourcesAgree(t *testing.T) {
	for _, fw := range []string{mlframework.PyTorch, mlframework.TensorFlow, mlframework.VLLM, mlframework.HFTransformers} {
		w := frameworkWorkload(t, fw, 4)
		for _, in := range []*mlframework.Install{w.Install, debloatedClone(t, w)} {
			indexed, scanned := reparsed(t, in, true), reparsed(t, in, false)
			for _, mode := range []cudasim.LoadMode{cudasim.EagerLoading, cudasim.LazyLoading} {
				for _, name := range in.LibNames {
					a, b := indexed.Library(name), scanned.Library(name)
					if !a.Indexed() || b.Indexed() {
						t.Fatalf("%s %s: want one indexed and one unindexed library", fw, name)
					}
					da, db := cudasim.NewDefault(), cudasim.NewDefault()
					ma, errA := da.NewContext(gpuarch.T4, mode).LoadModule(a)
					mb, errB := db.NewContext(gpuarch.T4, mode).LoadModule(b)
					if errA != nil || errB != nil {
						t.Fatalf("%s %s %v: load: %v / %v", fw, name, mode, errA, errB)
					}
					if ma.ResidentCPU != mb.ResidentCPU || da.Clock.Now() != db.Clock.Now() || ma.LoadedGPUBytes() != mb.LoadedGPUBytes() {
						t.Fatalf("%s %s %v: resident %d/%d, clock %v/%v, GPU bytes %d/%d", fw, name, mode,
							ma.ResidentCPU, mb.ResidentCPU, da.Clock.Now(), db.Clock.Now(), ma.LoadedGPUBytes(), mb.LoadedGPUBytes())
					}
					for _, cb := range b.LoadFacts().Arch(gpuarch.T4.Arch).Cubins {
						for _, k := range cb.Kernels {
							if ma.HasKernel(k.Name) != mb.HasKernel(k.Name) {
								t.Fatalf("%s %s %v: HasKernel(%s) differs", fw, name, mode, k.Name)
							}
						}
					}
				}
				wa, wb := w, w
				wa.Mode, wa.Install = mode, indexed
				wb.Mode, wb.Install = mode, scanned
				ra, errA := mlruntime.Run(wa, mlruntime.Options{MaxSteps: 2})
				rb, errB := mlruntime.Run(wb, mlruntime.Options{MaxSteps: 2})
				if errA != nil || errB != nil {
					t.Fatalf("%s %v: run: %v / %v", fw, mode, errA, errB)
				}
				if *ra != *rb {
					t.Fatalf("%s %v: indexed run %+v, scanned run %+v", fw, mode, *ra, *rb)
				}
			}
		}
	}
}

var benchResult *mlruntime.Result

// BenchmarkRun times one run of a disk_persist-sized member workload
// (pytorch, 141 tail libraries, MobileNetV2 training, 4 steps): on the
// original install with its libraries already loaded once, as detect runs
// see it, and on a verify clone parsed anew for every run, as the first
// verify run of a batch sees it (the parse itself is not timed).
func BenchmarkRun(b *testing.B) {
	w := frameworkWorkload(b, mlframework.PyTorch, 141)
	debloated := debloatedClone(b, w).Libs
	libs := make(map[string][]byte, len(debloated))
	for name, lib := range debloated {
		libs[name] = lib.Data
	}
	opt := mlruntime.Options{MaxSteps: 4}
	b.Run("original", func(b *testing.B) {
		if _, err := mlruntime.Run(w, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchResult, _ = mlruntime.Run(w, opt)
		}
	})
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			clone, err := w.Install.CloneWithLibs(libs)
			if err != nil {
				b.Fatal(err)
			}
			vw := w
			vw.Install = clone
			b.StartTimer()
			if benchResult, err = mlruntime.Run(vw, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
