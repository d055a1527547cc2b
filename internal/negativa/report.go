package negativa

// LibraryReport captures the before/after state of one shared library.
// "Effective" sizes count non-zero bytes — the storage a zero-compacted
// file actually occupies (the compactor zeroes ranges in place to preserve
// addresses; sparse storage reclaims the zeroed blocks).
type LibraryReport struct {
	Name string

	// FileSize is the original file size in bytes.
	FileSize int64
	// FileEffective / FileEffectiveAfter are non-zero byte counts before
	// and after compaction.
	FileEffective      int64
	FileEffectiveAfter int64

	// CPUSize is the .text section size; CPUSizeAfter its effective size
	// after compaction.
	CPUSize      int64
	CPUSizeAfter int64
	// FuncCount / FuncKept count symbol-table functions.
	FuncCount int
	FuncKept  int

	// GPUSize is the .nv_fatbin section size; GPUSizeAfter its effective
	// size after compaction.
	GPUSize      int64
	GPUSizeAfter int64
	// ElemCount / ElemKept count fatbin elements.
	ElemCount int
	ElemKept  int
	// RemovedArchMismatch / RemovedNoUsedKernel split removed elements by
	// reason (Figure 7).
	RemovedArchMismatch int
	RemovedNoUsedKernel int

	// ResidentBytes / ResidentBytesAfter apply the page-granular
	// resident-size model (elfx.PageSize) before and after compaction —
	// computed analytically from the range set, never by scanning.
	ResidentBytes      int64
	ResidentBytesAfter int64

	// UsedFuncs / UsedKernels are what the profile attributed to this
	// library (inputs to the Table 4 Jaccard analysis).
	UsedFuncs   []string
	UsedKernels []string

	// Sparse is the compacted library as a zero-copy sparse image.
	Sparse *SparseImage
}

// Debloated materializes the compacted library image. Each call builds a
// fresh copy; callers that only need sizes should use the analytic report
// fields, and streaming callers should use Sparse.WriteTo.
func (r *LibraryReport) Debloated() []byte { return r.Sparse.Materialize() }

// RetainedBytes models the heap a cached report pins: the sparse range set
// plus the used-symbol lists (the shared original image is not charged).
func (r *LibraryReport) RetainedBytes() int64 {
	n := int64(256) // struct + slice headers
	if r.Sparse != nil {
		n += r.Sparse.RetainedBytes()
	}
	n += int64(len(r.Name))
	for _, s := range r.UsedFuncs {
		n += 16 + int64(len(s))
	}
	for _, s := range r.UsedKernels {
		n += 16 + int64(len(s))
	}
	return n
}

func pct(before, after int64) float64 {
	if before <= 0 {
		return 0
	}
	return 100 * float64(before-after) / float64(before)
}

// FileReductionPct is the effective file-size reduction percentage.
func (r *LibraryReport) FileReductionPct() float64 {
	return pct(r.FileEffective, r.FileEffectiveAfter)
}

// FileSavedBytes is the absolute effective file-size saving.
func (r *LibraryReport) FileSavedBytes() int64 {
	return r.FileEffective - r.FileEffectiveAfter
}

// CPUReductionPct is the CPU-code size reduction percentage.
func (r *LibraryReport) CPUReductionPct() float64 { return pct(r.CPUSize, r.CPUSizeAfter) }

// FuncReductionPct is the function-count reduction percentage.
func (r *LibraryReport) FuncReductionPct() float64 {
	return pct(int64(r.FuncCount), int64(r.FuncKept))
}

// GPUReductionPct is the GPU-code size reduction percentage.
func (r *LibraryReport) GPUReductionPct() float64 { return pct(r.GPUSize, r.GPUSizeAfter) }

// ElemReductionPct is the element-count reduction percentage.
func (r *LibraryReport) ElemReductionPct() float64 {
	return pct(int64(r.ElemCount), int64(r.ElemKept))
}

// HasGPU reports whether the library carries GPU code.
func (r *LibraryReport) HasGPU() bool { return r.GPUSize > 0 }
