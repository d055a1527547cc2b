package dserve

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/negativa"
)

// Castore kinds used by the serving plane. Every stage record is keyed by
// its stage hash and sealed with it (memoStage.seal); job manifests are
// keyed by job ID (a manifest is a root that references stage-keyed
// records). A record an older build wrote is not sealed: it fails to open,
// is deleted when read, and recomputes.
//
// No kind holds library images: a record decodes against the live library
// its batch resolved, and a restored job reruns its request to get one
// (Service.restore). Older stores hold a "lib" image per library, and
// before the record a "result" (JSON) and a "sparse" object per result.
// Nothing reads, writes or pins those kinds, and a peer push of one is
// refused; they stay until castore's byte budget evicts them.
const (
	// kindRecord holds one locate+compact result per object, its payload in
	// the binary record format (negativa.EncodeRecord: report, symbol lists
	// and the v2 range set, bound to the library digest), keyed by the
	// compact-stage hash (negativa.CompactKey).
	kindRecord = "record"
	// kindProfile holds detection profiles, their payload in the binary
	// profile format (negativa.EncodeProfile), keyed by the detect-stage
	// hash (negativa.DetectKey).
	kindProfile = "profile"
	// kindVerify holds verification runs, their payload the run's
	// mlruntime.Result as JSON, keyed by the verifyrun-stage hash
	// (negativa.VerifyRunKey).
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
	rec, err := memoStageOf(negativa.StageCompact).seal(key, ld)
	if err != nil {
		return fmt.Errorf("dserve: result %s: %w", key, err)
	}
	return st.Put(kindRecord, key, rec)
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
	State     string       `json:"state,omitempty"`
	Error     string       `json:"error,omitempty"`
	Submitted manifestTime `json:"submitted"`
	Started   manifestTime `json:"started"`
	Finished  manifestTime `json:"finished"`
	Req       JobRequest   `json:"req"`

	InstallFP     string            `json:"install_fp"`
	Workloads     []WorkloadOutcome `json:"workloads"`
	DetectNS      int64             `json:"detect_ns"`
	AnalysisNS    int64             `json:"analysis_ns"`
	WallNS        manifestNS        `json:"wall_ns"`
	CacheHits     int               `json:"cache_hits"`
	CacheMisses   int               `json:"cache_misses"`
	ProfileReuses int               `json:"profile_reuses"`
	VerifySkipped bool              `json:"verify_skipped,omitempty"`
	// Incremental carries the base-absorption summary of an incremental
	// batch across restarts (nil for full batches).
	Incremental *IncrementalStats `json:"incremental,omitempty"`

	Libs []manifestLib `json:"libs"`
}

// manifestTime is a manifest's timestamp. It encodes at one fixed width —
// UTC, nine fractional digits — so a manifest's size does not follow its
// times (time.Time's RFC 3339 trims trailing zeros). It decodes any RFC
// 3339 time (the embedded Time's UnmarshalJSON), so manifests written in
// that form still restore.
type manifestTime struct{ time.Time }

const manifestTimeLayout = `"2006-01-02T15:04:05.000000000Z"`

func (t manifestTime) MarshalJSON() ([]byte, error) {
	return t.UTC().AppendFormat(nil, manifestTimeLayout), nil
}

// manifestNS is a manifest's measured wall time in nanoseconds. It encodes
// as a string of 19 zero-padded digits, so a manifest's size does not follow
// how long its batch took either, and decodes that form or the plain JSON
// number older manifests hold.
type manifestNS int64

func (d manifestNS) MarshalJSON() ([]byte, error) {
	return fmt.Appendf(nil, `"%019d"`, int64(d)), nil
}

func (d *manifestNS) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseInt(strings.Trim(string(b), `"`), 10, 64)
	*d = manifestNS(n)
	return err
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
		Submitted: manifestTime{job.Submitted},
		Started:   manifestTime{job.Started},
		Finished:  manifestTime{job.Finished},
		Req:       job.Req,

		InstallFP:     res.InstallFP,
		Workloads:     res.Workloads,
		DetectNS:      int64(res.DetectTime),
		AnalysisNS:    int64(res.AnalysisTime),
		WallNS:        manifestNS(res.WallTime),
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
