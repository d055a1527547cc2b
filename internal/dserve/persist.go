package dserve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

// Castore kinds used by the serving plane. Every stage artifact is keyed by
// its stage hash except job manifests, which are keyed by job ID (a
// manifest is a root that references stage-keyed records).
//
// No kind holds library images: a record decodes against the live library
// its batch resolved, and a restored job reruns its request to get one
// (Service.restore). Older stores hold a "lib" image per library, and
// before the record a "result" (JSON) and a "sparse" object per result.
// Nothing reads, writes or pins those kinds, and a peer push of one is
// refused; they stay until castore's byte budget evicts them.
const (
	// kindRecord holds one locate+compact result per object in the binary
	// record format (negativa.EncodeRecord: report, symbol lists and the v2
	// range set, bound to the library digest), keyed by the compact-stage
	// hash (negativa.CompactKey).
	kindRecord = "record"
	// kindProfile holds detection profiles as binary records
	// (negativa.EncodeProfile), keyed by profileObjectKey of the detect
	// hash. An older store's JSON profiles fail to decode, are deleted when
	// read, and recompute.
	kindProfile = "profile"
	// kindVerify holds verification-run records (storedVerify JSON),
	// keyed by the verifyrun-stage hash (negativa.VerifyRunKey).
	kindVerify = "verify"
	// kindJob holds job manifests (JSON), keyed by job ID.
	kindJob = "job"
)

// storeRef names one castore object: one a job holds a reference on, or
// one on the stat wire.
type storeRef struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
}

// spillResult persists one locate+compact result's record synchronously —
// persistJob's backstop for a referenced result the write-behind never
// wrote. Re-spilling an already-present key is cheap (castore Puts of
// existing objects are no-ops).
func spillResult(st *castore.Store, key string, ld *negativa.LibDebloat) error {
	rec, err := negativa.EncodeRecord(ld)
	if err != nil {
		return fmt.Errorf("dserve: result %s: %w", key, err)
	}
	return st.Put(kindRecord, key, rec)
}

// profileObjectKey derives the castore key of a profile record from its
// detect stage hash (install fingerprint ‖ NUL ‖ workload identity). Both
// are free-form strings (workload identities embed model names and device
// lists), so the hash is digested into the path-safe content-address space.
func profileObjectKey(hash string) string {
	sum := sha256.Sum256([]byte(hash))
	return hex.EncodeToString(sum[:])
}

// storedVerify is the one form of a verify record, on disk and on the wire:
// the run's result beside the stage hash it answers, so an object filed or
// served under the wrong key reads as corruption rather than as someone
// else's outcome.
type storedVerify struct {
	Key    string            `json:"key"`
	Result *mlruntime.Result `json:"result"`
}

// jobManifest is the durable root of one completed job: request, outcome
// summary, and each library's name and record key. A done job's durable
// form is this and its pinned records, nothing else: restoring the job
// reruns the request, which reads the records through the compact stage's
// disk tier, and the manifest is what the rerun must match.
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
}

// state returns the manifest's terminal state (legacy manifests without
// one read as done).
func (m *jobManifest) state() string {
	if m.State == "" {
		return JobDone
	}
	return m.State
}

// allVerified mirrors BatchResult.AllVerified for a restored job's status
// before its first report or fetch.
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
// plus each library's record.
func (m *jobManifest) refs() []storeRef {
	out := make([]storeRef, 0, 1+len(m.Libs))
	out = append(out, storeRef{kindJob, m.ID})
	for _, l := range m.Libs {
		out = append(out, storeRef{kindRecord, l.Key})
	}
	return out
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
		m.Libs = append(m.Libs, manifestLib{Name: lr.Name, Key: res.libKeys[i]})
	}
	return m, nil
}
