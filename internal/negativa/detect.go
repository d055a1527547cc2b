package negativa

import (
	"sort"
	"time"

	"negativaml/internal/cudasim"
	"negativaml/internal/mlruntime"
	"negativaml/internal/trace"
)

// Profile is the detection phase's output: what one workload actually used.
type Profile struct {
	// Workload is the profiled workload's name.
	Workload string
	// UsedKernels maps library name to the sorted CPU-launching kernel
	// names the detector recorded.
	UsedKernels map[string][]string
	// UsedFuncs maps library name to the sorted CPU functions the profiler
	// observed.
	UsedFuncs map[string][]string
	// RunResult is the profiled run's result (its Digest is the reference
	// output for verification; its ExecTime includes detector overhead).
	RunResult *mlruntime.Result
}

// RetainedBytes models the heap a cached profile pins, laid out as its
// record decodes: the struct, name and run result, and per usage map a
// header, per library a map slot, per string its header and bytes.
func (p *Profile) RetainedBytes() int64 {
	n := 48 + int64(len(p.Workload))
	if p.RunResult != nil {
		n += p.RunResult.RetainedBytes()
	}
	for _, usage := range []map[string][]string{p.UsedKernels, p.UsedFuncs} {
		n += 48
		for lib, syms := range usage {
			n += 64 + 16 + int64(len(lib))
			for _, s := range syms {
				n += 16 + int64(len(s))
			}
		}
	}
	return n
}

// DetectUsage runs the workload once with the kernel detector and the CPU
// profiler attached and returns its usage profile. maxSteps caps the run
// (0 = full dataset); kernel and function coverage saturates within the
// first steps because ML workloads iterate the same graph.
func DetectUsage(w mlruntime.Workload, maxSteps int) (*Profile, error) {
	var kd *trace.KernelDetector
	usedFuncs := make(map[string]map[string]bool)

	res, err := mlruntime.Run(w, mlruntime.Options{
		MaxSteps: maxSteps,
		DriverSetup: func(d *cudasim.Driver) {
			kd = trace.AttachDetector(d)
		},
		FuncHook: func(lib, fn string) {
			set := usedFuncs[lib]
			if set == nil {
				set = make(map[string]bool)
				usedFuncs[lib] = set
			}
			set[fn] = true
		},
	})
	if err != nil {
		return nil, err
	}

	p := &Profile{
		Workload:    w.Name,
		UsedKernels: kd.AllUsed(),
		UsedFuncs:   make(map[string][]string, len(usedFuncs)),
		RunResult:   res,
	}
	for lib, set := range usedFuncs {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		p.UsedFuncs[lib] = names
	}
	return p, nil
}

// DetectionOverhead measures the §4.6 comparison on one workload: the
// virtual run time bare, with the kernel detector, and with the NSys-like
// full tracer.
func DetectionOverhead(w mlruntime.Workload, maxSteps int) (base, detector, nsys time.Duration, err error) {
	r, err := mlruntime.Run(w, mlruntime.Options{MaxSteps: maxSteps})
	if err != nil {
		return 0, 0, 0, err
	}
	base = r.ExecTime

	r, err = mlruntime.Run(w, mlruntime.Options{
		MaxSteps:    maxSteps,
		DriverSetup: func(d *cudasim.Driver) { trace.AttachDetector(d) },
	})
	if err != nil {
		return 0, 0, 0, err
	}
	detector = r.ExecTime

	r, err = mlruntime.Run(w, mlruntime.Options{
		MaxSteps:    maxSteps,
		DriverSetup: func(d *cudasim.Driver) { trace.AttachNSys(d) },
	})
	if err != nil {
		return 0, 0, 0, err
	}
	nsys = r.ExecTime
	return base, detector, nsys, nil
}
