package elfx

import (
	"crypto/sha256"
	"sync"

	"negativaml/internal/cubin"
	"negativaml/internal/fatbin"
	"negativaml/internal/gpuarch"
)

// This file is the parse-once half of the analysis plane: every structural
// fact the locators and the byte accountants need is derived from a library
// exactly once, memoized by content digest, and then served as pure lookups.
// Location, compaction accounting, and cache keying all become O(query)
// instead of O(file-size), which is what lets the batch service's warm path
// avoid re-deriving structure per request.

// IndexedElement is the locator-ready view of one fatbin element: absolute
// file ranges, pre-parsed kernel facts, and the payload probes LocateGPU
// would otherwise redo per call.
type IndexedElement struct {
	// Index is the element's 1-based section-wide index (cuobjdump order).
	Index int
	Arch  gpuarch.SM
	Kind  uint16
	// FileRange / PayloadRange are absolute file ranges (section offset
	// already applied), ready for compaction.
	FileRange    fatbin.Range
	PayloadRange fatbin.Range
	// Kernels is the kernel count of the parsed cubin (0 when the payload
	// is not a parseable cubin — matching the locator, which only counts
	// kernels it actually parsed).
	Kernels int
	// IsCubinBlob records the cubin magic probe: false for zeroed
	// (previously compacted) payloads.
	IsCubinBlob bool
	// ParseErr is the cubin parse failure for magic-passing payloads; the
	// locator surfaces it only when the element's architecture is targeted,
	// so the index stores rather than raises it.
	ParseErr error
}

// LibIndex is a library's parse-once analysis index. It is immutable after
// construction and shared between all *Library values with identical bytes,
// so every field must be treated as read-only.
type LibIndex struct {
	// Digest is the SHA-256 of the library image — the content address
	// under which the index (and downstream locate/compact results) are
	// memoized.
	Digest [sha256.Size]byte

	// funcsByName maps a symbol name to the indices of lib.Funcs carrying
	// it (almost always one; duplicates keep symbol-table order).
	funcsByName map[string][]int32

	// Elements is the fatbin element table in section order. FatbinErr
	// records a fatbin section parse failure (Elements empty then);
	// HasFatbin distinguishes "no section" from "empty parse".
	Elements  []IndexedElement
	HasFatbin bool
	FatbinErr error
	// entryElems maps an entry-kernel name to the positions (into Elements)
	// of the cubins that can launch it from the host.
	entryElems map[string][]int32

	// data aliases the indexed library image (indexes never outlive the
	// need for the bytes: every sparse image over them needs the original
	// to materialize).
	data []byte
	// zeroPrefix[p] is the number of zero bytes in data[:min(p*PageSize,
	// len(data))] — a page-granular prefix sum (8 bytes per page, 1/512 of
	// the image) behind O(1) effective-size queries and the analytic
	// resident-size model; partial-page queries finish with a bounded
	// (<PageSize) vectorized count.
	zeroPrefix []int64
}

// indexMemo shares indexes between identical libraries across installs
// (the dependency tail), keyed by content digest. An index aliases its
// library image, so the memo is bounded by retained bytes (images + sums),
// not entry count, and wiped at the cap — a long-lived service can pin at
// most maxIndexMemoBytes through it; live *Library values keep their own
// index via the idx pointer regardless.
var (
	indexMemo sync.Map // [sha256.Size]byte -> *LibIndex
	// indexMemoMu serializes inserts (and the wipe) so the retained-byte
	// accounting is exact; lookups stay lock-free through the sync.Map.
	indexMemoMu    sync.Mutex
	indexMemoBytes int64
)

const maxIndexMemoBytes = 64 << 20

// Index returns the library's analysis index, building it on first touch.
// Concurrent first touches may build twice; both results are identical and
// the loser is dropped, so the race is benign. Identical library bytes
// (no matter the name or install) share one index.
func (l *Library) Index() *LibIndex {
	if x := l.idx.Load(); x != nil {
		return x
	}
	d := sha256.Sum256(l.Data)
	if v, ok := indexMemo.Load(d); ok {
		x := v.(*LibIndex)
		l.idx.Store(x)
		return x
	}
	x := buildIndex(l, d)
	// Bounded by bytes: wipe everything at the cap (the next warm pass
	// rebuilds what it touches). Insert and counter move
	// together under the lock, so the cap cannot be overshot by racing
	// first touches.
	cost := int64(len(l.Data)) + 8*int64(len(x.zeroPrefix))
	indexMemoMu.Lock()
	if v, loaded := indexMemo.Load(d); loaded {
		// A racing first touch beat us to the insert; adopt its index so
		// identical bytes keep sharing one instance and the accounting
		// charges the image once.
		x = v.(*LibIndex)
	} else {
		indexMemoBytes += cost
		if indexMemoBytes > maxIndexMemoBytes {
			indexMemo.Range(func(k, _ any) bool { indexMemo.Delete(k); return true })
			indexMemoBytes = cost
		}
		indexMemo.Store(d, x)
	}
	indexMemoMu.Unlock()
	l.idx.Store(x)
	return x
}

// Indexed reports whether Index has already run on this library, that is
// whether Index and ContentDigest are now lookups rather than a hash and a
// walk of the whole image.
func (l *Library) Indexed() bool { return l.idx.Load() != nil }

// ContentDigest returns the SHA-256 of the library image, memoized with the
// index — callers content-addressing locate/compact results (the batch
// service) share the hash work with the locators.
func (l *Library) ContentDigest() [sha256.Size]byte { return l.Index().Digest }

func buildIndex(l *Library, digest [sha256.Size]byte) *LibIndex {
	x := &LibIndex{
		Digest:      digest,
		funcsByName: make(map[string][]int32, len(l.Funcs)),
		entryElems:  map[string][]int32{},
	}

	for i := range l.Funcs {
		name := l.Funcs[i].Name
		x.funcsByName[name] = append(x.funcsByName[name], int32(i))
	}

	x.data = l.Data
	pages := (len(l.Data) + PageSize - 1) / PageSize
	x.zeroPrefix = make([]int64, pages+1)
	var zeros int64
	for p := 0; p < pages; p++ {
		end := (p + 1) * PageSize
		if end > len(l.Data) {
			end = len(l.Data)
		}
		zeros += int64(end-p*PageSize) - NonZeroBytes(l.Data[p*PageSize:end])
		x.zeroPrefix[p+1] = zeros
	}

	fb, has, err := l.Fatbin()
	x.HasFatbin = has
	if err != nil {
		x.FatbinErr = err
		return x
	}
	if !has {
		return x
	}
	secRange, _ := l.FatbinRange()
	for _, e := range fb.Elements() {
		ie := IndexedElement{
			Index: e.Index,
			Arch:  e.Arch,
			Kind:  e.Kind,
			FileRange: fatbin.Range{
				Start: secRange.Start + e.FileRange.Start,
				End:   secRange.Start + e.FileRange.End,
			},
			PayloadRange: fatbin.Range{
				Start: secRange.Start + e.PayloadRange.Start,
				End:   secRange.Start + e.PayloadRange.End,
			},
		}
		if e.Kind == fatbin.KindCubin && cubin.IsCubin(e.Payload) {
			ie.IsCubinBlob = true
			cb, err := cubin.Parse(e.Payload)
			if err != nil {
				ie.ParseErr = err
			} else {
				ie.Kernels = len(cb.Kernels)
				pos := int32(len(x.Elements))
				for ki := range cb.Kernels {
					if k := &cb.Kernels[ki]; k.Entry() {
						x.entryElems[k.Name] = append(x.entryElems[k.Name], pos)
					}
				}
			}
		}
		x.Elements = append(x.Elements, ie)
	}
	return x
}

// FuncsNamed returns the indices into Library.Funcs of every function with
// the given name, in symbol-table order. The slice is shared: read-only.
func (x *LibIndex) FuncsNamed(name string) []int32 { return x.funcsByName[name] }

// ElementsWithEntry returns the positions (into Elements) of cubins whose
// entry-kernel set contains name. The slice is shared: read-only.
func (x *LibIndex) ElementsWithEntry(name string) []int32 { return x.entryElems[name] }

// zerosTo returns the number of zero bytes in data[:off] (off pre-clamped):
// whole pages from the prefix sum, the trailing partial page by a bounded
// (<PageSize) vectorized count.
func (x *LibIndex) zerosTo(off int64) int64 {
	p := off / PageSize
	n := x.zeroPrefix[p]
	if rem := off - p*PageSize; rem > 0 {
		n += rem - NonZeroBytes(x.data[p*PageSize:off])
	}
	return n
}

// ZeroBytesIn returns the number of zero bytes of the original image within
// r (clamped): O(1) prefix-sum lookups plus at most two partial-page counts.
func (x *LibIndex) ZeroBytesIn(r fatbin.Range) int64 {
	start, end := r.Start, r.End
	if start < 0 {
		start = 0
	}
	if n := x.Size(); end > n {
		end = n
	}
	if start >= end {
		return 0
	}
	return x.zerosTo(end) - x.zerosTo(start)
}

// NonZeroBytesIn returns the number of non-zero bytes of the original image
// within r (clamped).
func (x *LibIndex) NonZeroBytesIn(r fatbin.Range) int64 {
	start, end := r.Start, r.End
	if start < 0 {
		start = 0
	}
	if n := x.Size(); end > n {
		end = n
	}
	if start >= end {
		return 0
	}
	return (end - start) - (x.zerosTo(end) - x.zerosTo(start))
}

// Size returns the indexed image's size in bytes.
func (x *LibIndex) Size() int64 { return int64(len(x.data)) }

// NonZeroBytes returns the image's effective (non-zero byte) size in O(1).
func (x *LibIndex) NonZeroBytes() int64 {
	return x.Size() - x.zeroPrefix[len(x.zeroPrefix)-1]
}

// ResidentBytes computes the resident-size model of the original image
// analytically — pages with at least one non-zero byte count fully — in
// O(pages) prefix-sum lookups instead of an O(size) scan.
func (x *LibIndex) ResidentBytes() int64 {
	size := x.Size()
	var n int64
	for p := 0; p+1 < len(x.zeroPrefix); p++ {
		end := int64(p+1) * PageSize
		if end > size {
			end = size
		}
		if x.zeroPrefix[p+1]-x.zeroPrefix[p] != end-int64(p)*PageSize {
			n += end - int64(p)*PageSize
		}
	}
	return n
}
