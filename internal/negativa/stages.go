package negativa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"negativaml/internal/elfx"
	"negativaml/internal/gpuarch"
	"negativaml/internal/plan"
)

// Stage names of the analysis plan. Every scheduled stage is a stage-graph
// node with an explicit content-derived key; internal/plan schedules them
// and internal/dserve memoizes detect, union, compact and verifyrun in one
// byte-bounded memory tier, and all but union also on disk and on replica
// peers.
const (
	// StageDetect runs a workload once with the detectors attached. Keyed
	// by (install fingerprint, workload identity) — the identity embeds the
	// step cap.
	StageDetect = "detect"
	// StageUnion merges the members' profiles into the batch's union.
	// Keyed by the members' detect keys in member order (UnionKey); its
	// value is a *Union.
	StageUnion = "union"
	// StageLibIndex and StageLocate name no node: a library's index is built
	// by InstallFingerprint before a plan exists, and location runs inside
	// the compact stage. The constants stay because bench/ compiles against
	// them; StageLocate also labels LocateKey's result.
	StageLibIndex = "libindex"
	StageLocate   = "locate"
	// StageCompact maps used symbols to file ranges, zeroes the unretained
	// ranges into a sparse image and builds the report. Keyed by (library
	// digest, used-symbol sets, target architectures).
	StageCompact = "compact"
	// StageVerifyRef runs the original install capped to obtain a
	// comparable reference digest. Keyed by (install fingerprint, workload
	// identity at the verification step cap).
	StageVerifyRef = "verifyref"
	// StageVerifyRun re-runs a workload on the debloated install. Keyed by
	// (install fingerprint, workload identity, verification step cap, the
	// digest of the debloated set as handed out — DebloatedSetDigest); its
	// value is the run's *mlruntime.Result, memoized by internal/dserve like
	// detect and compact.
	StageVerifyRun = "verifyrun"
)

// DetectKey is the detect stage's content key. workloadID must come from
// WorkloadIdentity, which embeds the detection step cap.
func DetectKey(installFP, workloadID string) plan.Key {
	return workloadKey(StageDetect, installFP, workloadID)
}

// UnionKey is the union stage's content key: one SHA-256 over the members'
// detect keys in member order. Those keys bind the install fingerprint,
// each member's identity (its devices, so the batch's architectures,
// included) and the step cap, so the union and every compact key derived
// from it are pure functions of this key. Reordering the members changes
// the key, not the compact keys.
func UnionKey(detects []plan.Key) plan.Key {
	h := sha256.New()
	for _, k := range detects {
		h.Write([]byte(k.Hash))
	}
	return plan.Key{Stage: StageUnion, Hash: hex.EncodeToString(h.Sum(nil))}
}

// Union is the union stage's value: the merged profile, and one compact-key
// slot per library of the install in load order. A slot is derived at most
// once, by whichever node asks for it first — the batch prefetch or the
// library's compact node — so a batch whose union is memoized hashes no
// symbol list. Immutable once derived; shared by every batch of its key.
type Union struct {
	Profile *Profile
	keys    []unionKey
	// members is the members' profiles' RetainedBytes.
	members int64
}

type unionKey struct {
	once sync.Once
	key  plan.Key
}

// RetainedBytes models the heap a cached union pins: the struct, its
// members' profiles whole, and per library a compact-key slot with its
// hash. A union's strings are its members', and one string of a decoded
// profile keeps the record's whole string buffer alive, so a union can pin
// all of its members' strings; their maps and lists stand in for its own,
// which are no larger. While the members are cached too, they are charged
// twice: the conservative side.
func (u *Union) RetainedBytes() int64 {
	return 32 + u.members + int64(len(u.keys))*(48+64)
}

// newUnion returns the union of the members over an install of libs libraries.
func newUnion(members []*Profile, libs int) *Union {
	u := &Union{Profile: MergeProfiles(members...), keys: make([]unionKey, libs)}
	for _, p := range members {
		u.members += p.RetainedBytes()
	}
	return u
}

// CompactKeyHook, when non-nil, is called with the library's name each
// time a Union derives a compact key: tests count derivations with it. Set
// it only while no batch runs.
var CompactKeyHook func(lib string)

// compactKey returns the compact key of library i (name, lib) for archs,
// deriving it on the first call.
func (u *Union) compactKey(i int, name string, lib *elfx.Library, archs []gpuarch.SM) plan.Key {
	k := &u.keys[i]
	k.once.Do(func() {
		if CompactKeyHook != nil {
			CompactKeyHook(name)
		}
		k.key = CompactKey(LocateKey(lib, u.Profile.UsedFuncs[name], u.Profile.UsedKernels[name], archs))
	})
	return k.key
}

// workloadKey keys a stage that runs one workload on one install: SHA-256
// over the install fingerprint, a NUL and the workload identity.
func workloadKey(stage, installFP, workloadID string) plan.Key {
	h := sha256.New()
	h.Write([]byte(installFP))
	h.Write([]byte{0})
	h.Write([]byte(workloadID))
	return plan.Key{Stage: stage, Hash: hex.EncodeToString(h.Sum(nil))}
}

// LocateKey derives the content address of one locate computation (and,
// via CompactKey, of the compaction it feeds): SHA-256 over the library's
// content digest, the used CPU-function and kernel sets, and the target
// architectures (canonicalized by sorting). The library digest comes from
// the parse-once analysis index (elfx.Library.ContentDigest), so warm
// lookups hash no library bytes. The library name is deliberately
// excluded — identical libraries shared across installs (the dependency
// tail) hit the memo no matter which install or job they arrive through;
// hits re-label the report with the requesting library's name.
func LocateKey(lib *elfx.Library, usedFuncs, usedKernels []string, archs []gpuarch.SM) plan.Key {
	h := sha256.New()
	d := lib.ContentDigest()
	// Fixed scratch, flushed into the hash when full: writing each name and
	// separator on its own is two calls into the hash per name, and a warm
	// batch derives hundreds of these keys. The bytes hashed are the same.
	var scratch [1024]byte
	buf := append(scratch[:0], d[:]...)
	room := func(n int) {
		if len(buf)+n > len(scratch) {
			h.Write(buf)
			buf = scratch[:0]
		}
	}
	writeList := func(tag byte, items []string) {
		room(2)
		buf = append(buf, 0xff, tag)
		for _, s := range items {
			room(len(s) + 1)
			buf = append(append(buf, s...), 0)
		}
	}
	// Used-symbol sets arrive sorted from DetectUsage/MergeProfiles; sorting
	// is their canonical form, so the hash is order-independent by contract.
	writeList(1, usedFuncs)
	writeList(2, usedKernels)
	// Architectures only influence fatbin element retention; for CPU-only
	// libraries (the dependency tail) the result is arch-independent, so
	// excluding archs lets heterogeneous-device batches share tail entries.
	if _, hasFB := lib.FatbinRange(); hasFB {
		sorted := append([]gpuarch.SM(nil), archs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		room(2)
		buf = append(buf, 0xff, 3)
		for _, a := range sorted {
			room(4)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(a))
		}
	}
	h.Write(buf)
	return plan.Key{Stage: StageLocate, Hash: hex.EncodeToString(h.Sum(nil))}
}

// CompactKey derives the compact stage's key from its location's key:
// compaction is a pure function of the location, so the same hash
// addresses both.
func CompactKey(locate plan.Key) plan.Key {
	return plan.Key{Stage: StageCompact, Hash: locate.Hash}
}

// compactNode adds library i's one node to a Batch's graph. union is the
// node whose value is the batch's *Union; name is the library's name in it;
// after lists nodes that must merely finish first. The key resolves late,
// from the union's slot for the library; location is computed inside the
// node on a memo miss and never on a hit; the hint is the library, which
// memo tiers decode a persisted range set against.
func compactNode(g *plan.Graph, union *plan.Node, i int, name string, lib *elfx.Library, archs []gpuarch.SM, after ...*plan.Node) *plan.Node {
	return g.Node(StageCompact, append([]*plan.Node{union}, after...), func(deps []any) (plan.Key, error) {
		return deps[0].(*Union).compactKey(i, name, lib, archs), nil
	}, func(deps []any) (any, error) {
		p := deps[0].(*Union).Profile
		ld, err := LocateAndCompactLib(lib, p.UsedFuncs[name], p.UsedKernels[name], archs)
		if err != nil {
			return nil, fmt.Errorf("negativa: locate %s: %w", name, err)
		}
		return ld, nil
	}).WithHint(lib)
}

// VerifyRefKey is the capped reference run's content key. workloadID must
// come from WorkloadIdentity at the verification step cap.
func VerifyRefKey(installFP, workloadID string) plan.Key {
	return workloadKey(StageVerifyRef, installFP, workloadID)
}

// DebloatedSetDigest is the content address of a debloated library set as it
// is handed out: one SHA-256 over, per library in load order, its name, the
// content digest of the image it compacts and the exact zeroed ranges of its
// sparse image. It is derived from the in-memory objects a result streams
// from, not from the keys that were asked for, so a different union, one
// flipped range, or a wrong-but-well-formed range set restored from disk or
// served by a peer all change it. names and images are parallel.
func DebloatedSetDigest(names []string, images []*SparseImage) string {
	h := sha256.New()
	le := binary.LittleEndian
	// Fixed scratch, flushed into the hash when full: a library's range set
	// runs to thousands of entries, and this runs on every warm batch.
	var scratch [4096]byte
	buf := scratch[:0]
	for i, sp := range images {
		d := sp.Lib().ContentDigest()
		h.Write(buf)
		h.Write([]byte(names[i]))
		buf = append(scratch[:0], 0)
		buf = append(buf, d[:]...)
		buf = le.AppendUint64(buf, uint64(len(sp.zeroed)))
		for _, r := range sp.zeroed {
			if len(buf)+16 > len(scratch) {
				h.Write(buf)
				buf = scratch[:0]
			}
			buf = le.AppendUint64(buf, uint64(r.Start))
			buf = le.AppendUint64(buf, uint64(r.End))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// VerifyRunKey is the verification re-run's content key: the workload (on
// its original install) at the verification step cap, plus the debloated
// library set it runs against, identified by DebloatedSetDigest. A verify
// run is a pure function of exactly these, so only a byte-identical
// debloated set can hit.
func VerifyRunKey(installFP, workloadID string, steps int, setDigest string) plan.Key {
	h := sha256.New()
	h.Write([]byte(installFP))
	h.Write([]byte{0})
	h.Write([]byte(workloadID))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(steps)))
	h.Write(b[:])
	h.Write([]byte(setDigest))
	return plan.Key{Stage: StageVerifyRun, Hash: hex.EncodeToString(h.Sum(nil))}
}

// LocateAndCompactLib is a compact node's work: location, then compaction,
// on one library. Used CPU functions map to .text file ranges through the
// symbol table and used kernels decide fatbin element retention for the
// given architectures; every unretained range then joins the sparse image's
// zeroed set, and every report size is computed analytically from the range
// set and the library's zero-byte prefix sum — no post-compaction buffer is
// allocated or rescanned. The returned Analysis is the locate+compact
// virtual time. The function only reads the library, so concurrent calls on
// a shared *elfx.Library are safe.
func LocateAndCompactLib(lib *elfx.Library, usedFuncs, usedKernels []string, archs []gpuarch.SM) (*LibDebloat, error) {
	cpuLoc := LocateCPU(lib, usedFuncs)
	gpuLoc, err := LocateGPU(lib, usedKernels, archs)
	if err != nil {
		return nil, err
	}
	sparse := Compact(lib, cpuLoc, gpuLoc)

	idx := lib.Index()
	lr := &LibraryReport{
		Name:                lib.Name,
		FileSize:            lib.FileSize(),
		FileEffective:       idx.NonZeroBytes(),
		FileEffectiveAfter:  sparse.NonZeroBytes(),
		CPUSize:             cpuLoc.TotalBytes,
		FuncCount:           cpuLoc.TotalFuncs,
		FuncKept:            cpuLoc.KeptFuncs,
		ElemCount:           len(gpuLoc.Decisions),
		ElemKept:            gpuLoc.Kept(),
		RemovedArchMismatch: gpuLoc.RemovedBy(ReasonArchMismatch),
		RemovedNoUsedKernel: gpuLoc.RemovedBy(ReasonNoUsedKernel),
		ResidentBytes:       idx.ResidentBytes(),
		ResidentBytesAfter:  sparse.ResidentBytes(),
		UsedFuncs:           usedFuncs,
		UsedKernels:         usedKernels,
		Sparse:              sparse,
	}
	if text := lib.Section(".text"); text != nil {
		lr.CPUSizeAfter = sparse.NonZeroBytesIn(text.Range)
	}
	if fbRange, ok := lib.FatbinRange(); ok {
		// Compare effective (non-zero) bytes on both sides.
		lr.GPUSize = idx.NonZeroBytesIn(fbRange)
		lr.GPUSizeAfter = sparse.NonZeroBytesIn(fbRange)
	}

	locate := time.Duration(cpuLoc.TotalFuncs)*locatePerFunc + time.Duration(len(gpuLoc.Decisions))*locatePerElement
	compact := time.Duration(lib.FileSize()/1024) * compactPerKB
	return &LibDebloat{Report: lr, Analysis: locate + compact}, nil
}
