package dserve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/elfx"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

// Castore kinds used by the serving plane. Everything durable is keyed by
// content digest except job manifests, which are keyed by job ID (the one
// name-addressed namespace — a manifest is a root that references digest-
// addressed objects).
const (
	// kindLib holds original library images, keyed by the hex library
	// content digest (elfx.Library.ContentDigest).
	kindLib = "lib"
	// kindRecord holds one locate+compact result per object in the binary
	// record format (negativa.EncodeRecord: report, symbol lists and the v2
	// range set, bound to the library digest), keyed by the compact-stage
	// hash (negativa.CompactKey). Stores written before the record hold a
	// "result" (JSON) and a "sparse" object per result instead; nothing
	// reads those kinds, so such a store recomputes its compact stages.
	kindRecord = "record"
	// kindProfile holds detection profiles as binary records
	// (negativa.EncodeProfile), keyed by profileObjectKey. An older store's
	// JSON profiles fail to decode, are deleted when read, and recompute.
	kindProfile = "profile"
	// kindVerify holds verification-run records (JSON), keyed by the
	// verifyrun-stage hash (negativa.VerifyRunKey).
	kindVerify = "verify"
	// kindJob holds job manifests (JSON), keyed by job ID.
	kindJob = "job"
)

// storeRef names one castore object a job holds a reference on.
type storeRef struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
}

func digestHex(lib *elfx.Library) string {
	d := lib.ContentDigest()
	return hex.EncodeToString(d[:])
}

// spillResult persists one locate+compact result synchronously, as its
// two objects in resultObjects' order — persistJob's backstop for a
// referenced result the write-behind never wrote. Re-spilling an
// already-present key is cheap (castore Puts of existing objects are
// no-ops).
func spillResult(st *castore.Store, key string, ld *negativa.LibDebloat) error {
	rec, err := negativa.EncodeRecord(ld)
	if err != nil {
		return fmt.Errorf("dserve: result %s: %w", key, err)
	}
	for _, o := range resultObjects(key, ld.Report.Sparse.Lib(), rec) {
		if err := st.Put(o.kind, o.key, o.payload); err != nil {
			return err
		}
	}
	return nil
}

// loadResult reads a locate+compact result from the store against a live
// library (the warm-disk path inside a running batch: the install is
// already in memory, only the result comes from disk). The record is a
// few hundred bytes, so one checksummed Get reads it; a mapping costs more
// than the bytes. Returns false on any absence or corruption — the caller
// recomputes. A well-framed record that does not decode against lib is
// deleted here (unless a job pins it), so the recompute it forces can
// write the record again.
func loadResult(st *castore.Store, key string, lib *elfx.Library) (*negativa.LibDebloat, bool) {
	raw, ok := st.Get(kindRecord, key)
	if !ok {
		return nil, false
	}
	ld, err := negativa.DecodeRecord(lib, raw)
	if err != nil {
		st.Delete(kindRecord, key)
		return nil, false
	}
	return ld, true
}

// profileObjectKey derives the castore key of a profile entry. Profile keys
// are free-form strings (workload identities embed model names and device
// lists), so they are digested into the path-safe content-address space.
func profileObjectKey(key ProfileKey) string {
	h := sha256.New()
	h.Write([]byte(key.Install))
	h.Write([]byte{0})
	h.Write([]byte(key.Workload))
	return hex.EncodeToString(h.Sum(nil))
}

// storedVerify is the on-disk and pushed form of one verify record: the
// run's result beside the stage hash it answers, so an object filed under
// the wrong key reads as corruption rather than as someone else's outcome.
type storedVerify struct {
	Key    string            `json:"key"`
	Result *mlruntime.Result `json:"result"`
}

// loadVerifyRecord reads one verify record from the store. A frame that
// fails its checksum is dropped by the store itself; a well-framed object
// that does not parse as this key's record is deleted here, so the re-run
// it forces can write the record again.
func loadVerifyRecord(st *castore.Store, hash string) (*mlruntime.Result, bool) {
	raw, ok := st.Get(kindVerify, hash)
	if !ok {
		return nil, false
	}
	var sv storedVerify
	if json.Unmarshal(raw, &sv) != nil || sv.Key != hash || sv.Result == nil {
		st.Delete(kindVerify, hash)
		return nil, false
	}
	return sv.Result, true
}

// jobManifest is the durable root of one completed job: request, outcome
// summary, and per-library references into the digest-addressed object
// space. Restoring a job walks the references; the expensive artifacts are
// shared with the result cache's disk tier.
type jobManifest struct {
	ID string `json:"id"`
	// State is the terminal state (JobDone or JobFailed; empty reads as
	// done). Failed jobs persist too — their IDs must never be reissued
	// after a restart, and clients polling them must keep seeing the
	// failure, not a stranger's new job.
	State     string     `json:"state,omitempty"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   time.Time  `json:"started"`
	Finished  time.Time  `json:"finished"`
	Req       JobRequest `json:"req"`

	InstallFP     string            `json:"install_fp"`
	UnionWorkload string            `json:"union_workload"`
	Workloads     []WorkloadOutcome `json:"workloads"`
	DetectNS      int64             `json:"detect_ns"`
	AnalysisNS    int64             `json:"analysis_ns"`
	WallNS        int64             `json:"wall_ns"`
	CacheHits     int               `json:"cache_hits"`
	CacheMisses   int               `json:"cache_misses"`
	ProfileReuses int               `json:"profile_reuses"`
	VerifySkipped bool              `json:"verify_skipped,omitempty"`
	// Incremental carries the base-absorption summary of an incremental
	// batch across restarts (nil for full batches).
	Incremental *IncrementalStats `json:"incremental,omitempty"`

	Libs []manifestLib `json:"libs"`
}

type manifestLib struct {
	Name string `json:"name"`
	// Key addresses the kindRecord object.
	Key string `json:"key"`
	// LibDigest addresses the kindLib image.
	LibDigest string `json:"lib_digest"`
}

// state returns the manifest's terminal state (legacy manifests without
// one read as done).
func (m *jobManifest) state() string {
	if m.State == "" {
		return JobDone
	}
	return m.State
}

// allVerified mirrors BatchResult.AllVerified for the lazily-restored path.
func (m *jobManifest) allVerified() bool {
	if m.VerifySkipped {
		return true
	}
	for i := range m.Workloads {
		if !m.Workloads[i].Verified {
			return false
		}
	}
	return true
}

// refs lists every object the manifest's job must pin: the manifest itself
// plus each library's record and image.
func (m *jobManifest) refs() []storeRef {
	out := make([]storeRef, 0, 1+2*len(m.Libs))
	out = append(out, storeRef{kindJob, m.ID})
	for _, l := range m.Libs {
		out = append(out, l.refs()...)
	}
	return out
}

// refs lists the library's two objects: its record, then its image.
func (l manifestLib) refs() []storeRef {
	return []storeRef{{kindRecord, l.Key}, {kindLib, l.LibDigest}}
}

func manifestOf(job *Job, res *BatchResult) (*jobManifest, error) {
	if len(res.libKeys) != len(res.Libs) {
		return nil, fmt.Errorf("dserve: job %s result carries no cache keys; cannot persist", job.ID)
	}
	m := &jobManifest{
		ID:        job.ID,
		State:     JobDone,
		Submitted: job.Submitted,
		Started:   job.Started,
		Finished:  job.Finished,
		Req:       job.Req,

		InstallFP:     res.InstallFP,
		UnionWorkload: res.Union.Workload,
		Workloads:     res.Workloads,
		DetectNS:      int64(res.DetectTime),
		AnalysisNS:    int64(res.AnalysisTime),
		WallNS:        int64(res.WallTime),
		CacheHits:     res.CacheHits,
		CacheMisses:   res.CacheMisses,
		ProfileReuses: res.ProfileReuses,
		VerifySkipped: res.VerifySkipped,
		Incremental:   res.Incremental,
	}
	for i, lr := range res.Libs {
		if lr.Sparse == nil {
			return nil, fmt.Errorf("dserve: job %s library %s has no sparse image", job.ID, lr.Name)
		}
		m.Libs = append(m.Libs, manifestLib{
			Name:      lr.Name,
			Key:       res.libKeys[i],
			LibDigest: digestHex(lr.Sparse.Lib()),
		})
	}
	return m, nil
}
