package elfx

import (
	"sync"

	"negativaml/internal/cubin"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// LoadFacts is what running a library needs to know about its bytes: how
// many of them are non-zero, its parsed fatbin and cubins, and which of its
// functions are still present. It depends on the bytes alone, so a library
// builds it once (see Library.LoadFacts) and every run, device context and
// workload reads the same value. Every field is read-only; the per-arch
// cubins are built on first use (see Arch) and then read-only too.
type LoadFacts struct {
	// NonZero and FatbinNonZero count the non-zero bytes of the image and
	// of its .nv_fatbin section (0 without one).
	NonZero, FatbinNonZero int64
	// Fatbin is the parsed .nv_fatbin section, nil when the library has
	// none or when it does not parse; FatbinErr is that parse failure.
	Fatbin    *fatbin.FatBin
	FatbinErr error

	alive map[string]bool
	archs sync.Map // gpuarch.SM -> *ArchCubins
}

// ArchCubins are a library's parsed cubins for one architecture: the
// elements of that architecture that pass the magic probe and parse, in
// section order. Payloads zeroed by compaction, or damaged, are absent.
type ArchCubins struct {
	Cubins  []*cubin.Cubin
	kernels map[string]int
}

// CubinWith returns the position in Cubins of the cubin that holds the
// named kernel; of several, the last.
func (a *ArchCubins) CubinWith(kernel string) (int, bool) {
	pos, ok := a.kernels[kernel]
	return pos, ok
}

// Alive reports whether the named function's code is present: its range is
// in bounds and not all zero. Of functions sharing a name, the last decides.
func (f *LoadFacts) Alive(name string) bool { return f.alive[name] }

// Arch returns the library's cubins for arch. They are parsed on the first
// call for that architecture, because a run reads one or two of the many an
// install ships; concurrent first calls may parse twice, and one is kept.
func (f *LoadFacts) Arch(arch gpuarch.SM) *ArchCubins {
	if a, ok := f.archs.Load(arch); ok {
		return a.(*ArchCubins)
	}
	a := &ArchCubins{kernels: map[string]int{}}
	if f.Fatbin != nil {
		for _, e := range f.Fatbin.Elements() {
			if e.Kind != fatbin.KindCubin || e.Arch != arch || !cubin.IsCubin(e.Payload) {
				continue
			}
			cb, err := cubin.Parse(e.Payload)
			if err != nil {
				continue
			}
			for _, k := range cb.Kernels {
				a.kernels[k.Name] = len(a.Cubins)
			}
			a.Cubins = append(a.Cubins, cb)
		}
	}
	stored, _ := f.archs.LoadOrStore(arch, a)
	return stored.(*ArchCubins)
}

// LoadFacts returns the library's load facts, building them on first touch.
// Concurrent first touches may build twice; both results are identical and
// one is kept. An indexed library takes its byte counts from the index's
// prefix sum; any other library (a verify clone) counts them in one pass.
func (l *Library) LoadFacts() *LoadFacts {
	if f := l.facts.Load(); f != nil {
		return f
	}
	f := &LoadFacts{alive: make(map[string]bool, len(l.Funcs))}
	fbRange, _ := l.FatbinRange()
	if x := l.idx.Load(); x != nil {
		f.NonZero, f.FatbinNonZero = x.NonZeroBytes(), x.NonZeroBytesIn(fbRange)
	} else {
		f.FatbinNonZero = NonZeroBytesIn(l.Data, fbRange)
		f.NonZero = NonZeroBytes(l.Data[:fbRange.Start]) + f.FatbinNonZero + NonZeroBytes(l.Data[fbRange.End:])
	}
	for i := range l.Funcs {
		f.alive[l.Funcs[i].Name] = l.FunctionAlive(&l.Funcs[i])
	}
	f.Fatbin, _, f.FatbinErr = l.Fatbin()
	if !l.facts.CompareAndSwap(nil, f) {
		f = l.facts.Load()
	}
	return f
}
