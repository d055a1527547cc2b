package negativa

import (
	"fmt"

	"negativaml/internal/cubin"
	"negativaml/internal/elfx"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// This file implements an ablation of the locator's central design
// choice: retaining *whole cubins* rather than exact kernels. The paper
// keeps the cubin because a kernel launched from device code (a
// GPU-launching kernel) never passes through cuModuleGetFunction, so a
// locator that kept only detected kernels would strip the children and
// break the workload. LocateGPUExact implements that naive strategy so the
// ablation experiment (and tests) can demonstrate the failure.

// ExactKernelLocation is the naive locator's output: byte ranges of the
// detected kernels only.
type ExactKernelLocation struct {
	// Keep are absolute file ranges of the detected kernels' code.
	Keep []fatbin.Range
	// KeptKernels / TotalKernels count kernels in matching-arch cubins.
	KeptKernels  int
	TotalKernels int
}

// LocateGPUExact is the ablated locator: instead of retaining whole
// elements, it retains only the code ranges of kernels the detector saw,
// zeroing everything else inside matching-arch cubins — including the
// device-only kernels their call graphs need. Provided for the ablation;
// the real pipeline never uses it.
func LocateGPUExact(lib *elfx.Library, usedKernels []string, archs []gpuarch.SM) (*ExactKernelLocation, error) {
	fb, has, err := lib.Fatbin()
	if err != nil {
		return nil, err
	}
	loc := &ExactKernelLocation{}
	if !has {
		return loc, nil
	}
	secRange, _ := lib.FatbinRange()
	used := make(map[string]bool, len(usedKernels))
	for _, k := range usedKernels {
		used[k] = true
	}
	archSet := make(map[gpuarch.SM]bool, len(archs))
	for _, a := range archs {
		archSet[a] = true
	}
	for _, e := range fb.Elements() {
		if e.Kind != fatbin.KindCubin || !archSet[e.Arch] {
			continue
		}
		cb, err := cubin.Parse(e.Payload)
		if err != nil {
			return nil, fmt.Errorf("negativa: %s element %d: %w", lib.Name, e.Index, err)
		}
		// Header, kernel table and string table are always kept so the
		// cubin still parses; only unused kernel code is dropped.
		payloadStart := secRange.Start + e.PayloadRange.Start
		codeBase, err := cubinCodeOffset(e.Payload)
		if err != nil {
			return nil, err
		}
		loc.Keep = append(loc.Keep, fatbin.Range{
			Start: payloadStart,
			End:   payloadStart + codeBase,
		})
		codeCursor := int64(0)
		for _, k := range cb.Kernels {
			size := int64(len(k.Code))
			loc.TotalKernels++
			if used[k.Name] {
				loc.KeptKernels++
				loc.Keep = append(loc.Keep, fatbin.Range{
					Start: payloadStart + codeBase + codeCursor,
					End:   payloadStart + codeBase + codeCursor + size,
				})
			}
			codeCursor += size
		}
	}
	return loc, nil
}

// cubinCodeOffset reads the code-blob offset from a cubin header (layout in
// internal/cubin).
func cubinCodeOffset(payload []byte) (int64, error) {
	if !cubin.IsCubin(payload) {
		return 0, fmt.Errorf("negativa: not a cubin payload")
	}
	// codeOff is the u32 at byte 20 of the header.
	off := int64(uint32(payload[20]) | uint32(payload[21])<<8 | uint32(payload[22])<<16 | uint32(payload[23])<<24)
	if off < 0 || off > int64(len(payload)) {
		return 0, fmt.Errorf("negativa: implausible cubin code offset %d", off)
	}
	return off, nil
}

// CompactExact applies the naive exact-kernel compaction: inside each
// matching-arch cubin payload, zero all kernel code not covered by keep.
// CPU compaction is unchanged.
func CompactExact(lib *elfx.Library, cpu *CPULocation, exact *ExactKernelLocation, archs []gpuarch.SM) ([]byte, error) {
	out := make([]byte, len(lib.Data))
	copy(out, lib.Data)
	if text := lib.Section(".text"); text != nil && cpu != nil {
		elfx.ZeroOutside(out, text.Range, cpu.Keep)
	}
	fb, has, err := lib.Fatbin()
	if err != nil {
		return nil, err
	}
	if !has {
		return out, nil
	}
	secRange, _ := lib.FatbinRange()
	archSet := make(map[gpuarch.SM]bool, len(archs))
	for _, a := range archs {
		archSet[a] = true
	}
	for _, e := range fb.Elements() {
		abs := fatbin.Range{
			Start: secRange.Start + e.PayloadRange.Start,
			End:   secRange.Start + e.PayloadRange.End,
		}
		if e.Kind != fatbin.KindCubin || !archSet[e.Arch] {
			elfx.ZeroRange(out, abs)
			continue
		}
		elfx.ZeroOutside(out, abs, exact.Keep)
	}
	return out, nil
}
