package mlframework

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"negativaml/internal/cubin"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
	"negativaml/internal/models"
	"negativaml/internal/plan"
)

// Install is a generated framework installation: its shared libraries plus
// the runtime metadata the executor needs (what to call at init, which
// functions dispatch each operator family, where each family's kernels
// live). The debloater never reads this metadata — it profiles the running
// workload like the real tool.
type Install struct {
	Framework string
	Version   string
	// LibNames is the load order.
	LibNames []string
	Libs     map[string]*elfx.Library
	// InitCalls are the (library, function) pairs invoked at framework
	// import/initialization.
	InitCalls []LibFunc
	// FamilyCalls maps a kernel family to the host dispatch functions
	// executed every time an op of that family runs.
	FamilyCalls map[string][]LibFunc
	// FamilyLib maps a kernel family to the library holding its kernels.
	FamilyLib map[string]string
	// BaseHeapCPU is the framework's own host heap (scaled bytes).
	BaseHeapCPU int64
	// GPUPoolFraction, when non-zero, preallocates that fraction of device
	// memory at startup (TensorFlow's allocator, vLLM's KV-cache pool).
	GPUPoolFraction float64
}

// Library returns the named library or nil.
func (in *Install) Library(name string) *elfx.Library { return in.Libs[name] }

// TotalFileSize sums the file sizes of all libraries.
func (in *Install) TotalFileSize() int64 {
	var n int64
	for _, l := range in.Libs {
		n += l.FileSize()
	}
	return n
}

// CloneWithLibs returns a shallow copy of the install with some libraries
// replaced by the given raw bytes (the debloated versions).
func (in *Install) CloneWithLibs(replaced map[string][]byte) (*Install, error) {
	out := *in
	out.Libs = make(map[string]*elfx.Library, len(in.Libs))
	for name, lib := range in.Libs {
		if data, ok := replaced[name]; ok {
			nl, err := elfx.Parse(name, data)
			if err != nil {
				return nil, fmt.Errorf("mlframework: replace %s: %w", name, err)
			}
			out.Libs[name] = nl
		} else {
			out.Libs[name] = lib
		}
	}
	return &out, nil
}

// generate builds an install from blueprints.
//
// universeGraphs defines the kernel universe planted into hosted families —
// every kernel any supported workload of this framework stack could resolve,
// enumerated per architecture via models.UniverseKernels.
func generate(framework, version string, bps []Blueprint, universeGraphs []*models.Graph, maxRanks, tailLibs int, baseHeap int64, gpuPool float64) (*Install, error) {
	in := &Install{
		Framework:       framework,
		Version:         version,
		Libs:            make(map[string]*elfx.Library),
		FamilyCalls:     make(map[string][]LibFunc),
		FamilyLib:       make(map[string]string),
		BaseHeapCPU:     baseHeap,
		GPUPoolFraction: gpuPool,
	}

	// Kernel universes per architecture.
	archSet := make(map[gpuarch.SM]bool)
	for i := range bps {
		for _, a := range bps[i].Archs {
			archSet[a] = true
		}
	}
	universe := make(map[gpuarch.SM]map[string][]string)
	for a := range archSet {
		universe[a] = models.UniverseKernels(universeGraphs, a, maxRanks)
	}

	// All families in the install (for main-lib wrappers).
	var allFamilies []string
	famSeen := make(map[string]bool)
	for i := range bps {
		for _, f := range bps[i].Families {
			if !famSeen[f] {
				famSeen[f] = true
				allFamilies = append(allFamilies, f)
			}
		}
	}
	sort.Strings(allFamilies)

	var mainLib string
	for i := range bps {
		bp := &bps[i]
		if bp.Main {
			mainLib = bp.Name
		}
	}

	// DT_NEEDED edges: the main library depends on every other blueprint
	// library, mirroring how a framework core pulls in its vendor stack. The
	// edge list is a function of the blueprint set alone — never of tail size
	// or framework name — so seeded libraries stay byte-identical across the
	// installs that share them. Tail libraries get no incoming edges: like
	// Python extension modules, they are roots the loader opens directly, and
	// ingestion's dependency closure treats them as such.
	mainNeeded := func(self string) []string {
		if self != mainLib {
			return nil
		}
		var needed []string
		for i := range bps {
			if bps[i].Name != self {
				needed = append(needed, bps[i].Name)
			}
		}
		return needed
	}

	// Each library is a function of its own blueprint, so they build on
	// plan.Each workers. Assembly then walks them in load order — the
	// blueprints, then the long tail of CPU-only dependency libraries — so
	// the install is byte- and metadata-identical to a serial loop's.
	all := make([]Blueprint, len(bps), len(bps)+tailLibs)
	copy(all, bps)
	for i := 0; i < tailLibs; i++ {
		all = append(all, tailBlueprint(framework, i))
	}
	type built struct {
		lib       *elfx.Library
		initFuncs []string
		famFuncs  map[string][]string
		err       error
	}
	libs := make([]built, len(all))
	plan.Each(len(all), func(i int) {
		b := &libs[i]
		b.lib, b.initFuncs, b.famFuncs, b.err = buildLibrary(framework, &all[i], universe, allFamilies, mainNeeded(all[i].Name))
	})
	for i := range all {
		bp, b := &all[i], &libs[i]
		if b.err != nil {
			return nil, b.err
		}
		in.Libs[bp.Name] = b.lib
		in.LibNames = append(in.LibNames, bp.Name)
		for _, f := range b.initFuncs {
			in.InitCalls = append(in.InitCalls, LibFunc{Lib: bp.Name, Func: f})
		}
		for fam, funcs := range b.famFuncs {
			for _, f := range funcs {
				in.FamilyCalls[fam] = append(in.FamilyCalls[fam], LibFunc{Lib: bp.Name, Func: f})
			}
		}
		for _, fam := range bp.Families {
			if prev, dup := in.FamilyLib[fam]; dup {
				return nil, fmt.Errorf("mlframework: family %q hosted by both %s and %s", fam, prev, bp.Name)
			}
			in.FamilyLib[fam] = bp.Name
		}
	}
	return in, nil
}

// tailNames are realistic sonames for the dependency tail.
var tailNames = []string{
	"libpython3.10.so.1.0", "libstdc++.so.6", "libm.so.6", "libz.so.1",
	"libssl.so.3", "libcrypto.so.3", "libprotobuf.so.32", "libomp.so.5",
	"libjpeg.so.8", "libpng16.so.16", "libmkl_core.so.2", "libopenblas.so.0",
	"libnuma.so.1", "libuv.so.1", "libzstd.so.1", "liblz4.so.1",
	"libsnappy.so.1", "libre2.so.9", "libabsl_base.so", "libgrpc.so.29",
}

func tailBlueprint(framework string, i int) Blueprint {
	var name string
	if i < len(tailNames) {
		name = tailNames[i]
	} else {
		name = fmt.Sprintf("libdep_%03d.so", i)
	}
	h := det(framework, "tail", name)
	// TensorFlow initializes far more of its dependency tail at import time
	// ("used bloat", paper §5), which is why its CPU code reduces less.
	initLo, initHi, facLo, facHi := 15, 45, 60, 85
	if framework == TensorFlow {
		initLo, initHi, facLo, facHi = 25, 55, 70, 95
	}
	return Blueprint{
		Name:               name,
		Funcs:              detRange(h, 6, 24),
		InitFrac:           float64(detRange(h>>8, initLo, initHi)) / 100,
		AvgFuncSize:        detRange(h>>16, 24, 64),
		UsedFuncSizeFactor: float64(detRange(h>>24, facLo, facHi)) / 10,
		OtherBytes:         detRange(h>>32, 2048, 12288),
	}
}

// archScale returns the code-size multiplier for one architecture.
func archScale(bp *Blueprint, arch gpuarch.SM) float64 {
	if s, ok := bp.ArchScales[arch]; ok {
		return s
	}
	if arch < gpuarch.SM75 {
		if bp.OldArchScale != 0 {
			return bp.OldArchScale
		}
		return 0.12
	}
	return 1.0
}

// familyUsed reports whether the family appears in the hosted (not bloat)
// family list — used to scale bloat-family engines down.
func familyUsed(bp *Blueprint, fam string) bool {
	for _, f := range bp.Families {
		if f == fam {
			return true
		}
	}
	return false
}

// buildLibrary generates one ELF shared library plus its runtime metadata:
// the init function names and per-family dispatch function names.
func buildLibrary(framework string, bp *Blueprint, universe map[gpuarch.SM]map[string][]string, allFamilies []string, needed []string) (*elfx.Library, []string, map[string][]string, error) {
	base := strings.TrimSuffix(strings.TrimPrefix(bp.Name, "lib"), ".so")
	base = strings.SplitN(base, ".", 2)[0]
	seed := bp.Seed
	if seed == "" {
		seed = framework
	}
	b := elfx.NewBuilder(bp.Name)
	for _, n := range needed {
		b.AddNeeded(n)
	}

	if bp.SetupFuncsPerFamily == 0 {
		bp.SetupFuncsPerFamily = 4
	}
	if bp.UsedFuncSizeFactor == 0 {
		bp.UsedFuncSizeFactor = 1.5
	}
	if bp.BloatFamilyEngineScale == 0 {
		bp.BloatFamilyEngineScale = 0.5
	}

	// ---- CPU functions ----
	var initFuncs []string
	famFuncs := make(map[string][]string)
	usedSize := int(float64(bp.AvgFuncSize) * bp.UsedFuncSizeFactor)

	nInit := int(float64(bp.Funcs) * bp.InitFrac)
	for i := 0; i < nInit; i++ {
		name := fmt.Sprintf("%s_init_%04d", base, i)
		b.AddFunction(name, jitter(usedSize, det(seed, bp.Name, name)))
		initFuncs = append(initFuncs, name)
	}
	addFamilyFuncs := func(fam, kind string, count int) {
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("%s_%s_%s_%d", base, fam, kind, i)
			b.AddFunction(name, jitter(usedSize, det(seed, bp.Name, name)))
			famFuncs[fam] = append(famFuncs[fam], name)
		}
	}
	for _, fam := range bp.Families {
		addFamilyFuncs(fam, "dispatch", bp.SetupFuncsPerFamily)
	}
	if bp.Main {
		// The core library wraps every family in the install.
		for _, fam := range allFamilies {
			if !familyUsed(bp, fam) {
				addFamilyFuncs(fam, "wrap", 2)
			}
		}
	}
	// Remaining functions are bloat.
	nUsed := nInit
	for _, fs := range famFuncs {
		nUsed += len(fs)
	}
	for i := nUsed; i < bp.Funcs; i++ {
		name := fmt.Sprintf("%s_fn_%05d", base, i)
		b.AddFunction(name, jitter(bp.AvgFuncSize, det(seed, bp.Name, name)))
	}

	// ---- GPU code ----
	if bp.HasGPU() {
		// Two regions, as real fatbins typically interleave; split archs.
		regions := make([]fatbin.Region, 2)
		for ai, arch := range bp.Archs {
			reg := &regions[ai%2]
			scale := archScale(bp, arch)
			fine := false
			for _, fa := range bp.FineGrainedArchs {
				if fa == arch {
					fine = true
				}
			}
			// Hosted families: engine (or per-variant) cubins with the
			// kernel universe.
			for _, fam := range bp.Families {
				names := universe[arch][fam]
				if len(names) == 0 {
					// Family unused by any supported workload: synthesize
					// plausible variants (still reachable in principle).
					for v := 0; v < 6; v++ {
						names = append(names, fmt.Sprintf("%s_v%d_fwd", fam, v))
					}
				}
				if err := addFamilyCubins(reg, bp, arch, fam, names, scale, fine, 1.0); err != nil {
					return nil, nil, nil, err
				}
			}
			// Bloat families: smaller engines, never referenced.
			for _, fam := range bp.BloatFamilies {
				var names []string
				for v := 0; v < 6; v++ {
					names = append(names, fmt.Sprintf("%s_v%d_fwd", fam, v))
				}
				if err := addFamilyCubins(reg, bp, arch, fam, names, scale, false, bp.BloatFamilyEngineScale); err != nil {
					return nil, nil, nil, err
				}
			}
			// Anonymous bloat cubins.
			for i := 0; i < bp.BloatCubinsPerArch; i++ {
				c := cubin.New(arch)
				for j := 0; j < max(1, bp.BloatKernelsPerCubin); j++ {
					kname := fmt.Sprintf("%s_blk%d_%d_%d_fwd", base, arch, i, j)
					size := jitter(int(float64(bp.BloatKernelSize)*scale), det(seed, bp.Name, kname))
					c.AddKernel(cubin.Kernel{Name: kname, Code: codeFill(kname, size), Flags: cubin.FlagEntry})
				}
				blob, err := c.Marshal()
				if err != nil {
					return nil, nil, nil, err
				}
				reg.AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: arch, Payload: blob})
			}
		}
		fb := &fatbin.FatBin{Regions: regions}
		blob, err := fb.Marshal()
		if err != nil {
			return nil, nil, nil, err
		}
		b.SetFatbin(blob)
	}

	if bp.OtherBytes > 0 {
		b.SetRodata(codeFill(bp.Name+"/rodata", bp.OtherBytes))
	}

	data, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	lib, err := elfx.Parse(bp.Name, data)
	if err != nil {
		return nil, nil, nil, err
	}
	return lib, initFuncs, famFuncs, nil
}

// addFamilyCubins adds the family's kernels for one arch: one engine cubin
// holding every variant (plus two device-only child kernels launched by the
// first entry), or one cubin per variant when fine-grained.
func addFamilyCubins(reg *fatbin.Region, bp *Blueprint, arch gpuarch.SM, fam string, names []string, scale float64, fine bool, engineScale float64) error {
	ksize := func(kname string) int {
		return jitter(int(float64(bp.UsedKernelSize)*scale*engineScale), det(bp.Name, fam, kname))
	}
	emit := func(c *cubin.Cubin) error {
		blob, err := c.Marshal()
		if err != nil {
			return err
		}
		reg.AddElement(fatbin.Element{Kind: fatbin.KindCubin, Arch: arch, Payload: blob})
		return nil
	}
	if fine {
		for _, kname := range names {
			c := cubin.New(arch)
			root := c.AddKernel(cubin.Kernel{Name: kname, Code: codeFill(kname, ksize(kname)), Flags: cubin.FlagEntry})
			child := c.AddKernel(cubin.Kernel{
				Name:  kname + "_dev0",
				Code:  codeFill(kname+"_dev0", ksize(kname)/4+16),
				Flags: cubin.FlagDeviceOnly,
			})
			c.Kernels[root].Launches = []int{child}
			if err := emit(c); err != nil {
				return err
			}
		}
		return nil
	}
	c := cubin.New(arch)
	var first = -1
	for _, kname := range names {
		idx := c.AddKernel(cubin.Kernel{Name: kname, Code: codeFill(kname, ksize(kname)), Flags: cubin.FlagEntry})
		if first < 0 {
			first = idx
		}
	}
	// Device-only children: the family's device-side support code (sized by
	// EngineBase), launched from the first entry kernel, invisible to the
	// kernel detector, retained only because the whole cubin is.
	if first >= 0 {
		base := int(float64(bp.EngineBase) * scale * engineScale)
		c1 := c.AddKernel(cubin.Kernel{
			Name:  fmt.Sprintf("%s_%d_dev0", fam, arch),
			Code:  codeFill(fam+"dev0", base/2+16),
			Flags: cubin.FlagDeviceOnly,
		})
		c2 := c.AddKernel(cubin.Kernel{
			Name:  fmt.Sprintf("%s_%d_dev1", fam, arch),
			Code:  codeFill(fam+"dev1", base/2+16),
			Flags: cubin.FlagDeviceOnly,
		})
		c.Kernels[first].Launches = []int{c1}
		c.Kernels[c1].Launches = []int{c2}
	}
	return emit(c)
}

// codeFill produces deterministic non-zero bytes: each 8-byte word is the
// little-endian encoding of one LCG state, zero bytes replaced by 0x5A.
func codeFill(seed string, size int) []byte {
	if size < 8 {
		size = 8
	}
	out := make([]byte, size)
	h := det("code", seed)
	var w [8]byte
	for i := 0; i < size; i += 8 {
		v := h
		if (v-0x0101010101010101)&^v&0x8080808080808080 != 0 { // a zero byte
			for k := 0; k < 64; k += 8 {
				if byte(v>>k) == 0 {
					v |= 0x5A << k
				}
			}
		}
		if i+8 <= size {
			binary.LittleEndian.PutUint64(out[i:], v)
		} else {
			binary.LittleEndian.PutUint64(w[:], v)
			copy(out[i:], w[:])
		}
		h = h*6364136223846793005 + 1442695040888963407
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
