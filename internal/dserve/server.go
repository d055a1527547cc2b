package dserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"negativaml/internal/bufpool"
	"negativaml/internal/metrics"
	"negativaml/internal/negativa"
)

// stageNames are the analysis plan's canonical stages, in pipeline order.
var stageNames = []string{
	negativa.StageDetect, negativa.StageUnion, negativa.StageCompact, negativa.StageVerifyRef, negativa.StageVerifyRun,
}

// stageStats assembles the per-stage view of /v1/metrics: hits and misses
// from the stage scheduler's observer counters (per-stage timings live in
// the timings section under the same stage.<name> series), disk_hits and
// peer_hits attributing the hits that did not come from local memory, and
// the stage's share of the memory tier, in entries and charged bytes.
func stageStats(c *metrics.CounterSet, cache *ResultCache) map[string]map[string]int64 {
	out := make(map[string]map[string]int64, len(stageNames))
	for _, st := range stageNames {
		mem := cache.StageStats(st)
		out[st] = map[string]int64{
			"hits":           c.Get("stage." + st + ".hits"),
			"misses":         c.Get("stage." + st + ".misses"),
			"disk_hits":      c.Get("stage." + st + ".disk_hits"),
			"peer_hits":      c.Get("stage." + st + ".peer_hits"),
			"memory_entries": int64(mem.Entries),
			"memory_bytes":   mem.Bytes,
		}
	}
	return out
}

// peerStats assembles the peer section of /v1/metrics: the memo tier's
// hit/miss/fallback counters, the hot path's round-trip and hedging
// counters, plus the cluster's membership and per-peer health (per-peer
// latency distributions live in the timings section under
// peer.<node-id>).
func peerStats(s *Service) map[string]any {
	c := s.Cluster()
	if c == nil {
		return nil
	}
	st := c.Stats()
	return map[string]any{
		"self":            st.Self,
		"ring_nodes":      st.RingNodes,
		"replica_sets":    st.ReplicaSets,
		"hits":            s.Counters.Get("peer.hits"),
		"misses":          s.Counters.Get("peer.misses"),
		"fallbacks":       s.Counters.Get("peer.fallbacks"),
		"replica_reads":   s.Counters.Get("peer.replica_reads"),
		"round_trips":     s.Counters.Get("peer.round_trips"),
		"hedge_fired":     s.Counters.Get("peer.hedge_fired"),
		"hedge_won":       s.Counters.Get("peer.hedge_won"),
		"hedge_cancelled": s.Counters.Get("peer.hedge_cancelled"),
		"peers":           st.Peers,
	}
}

// NewHandler returns the service's HTTP/JSON API, served by
// cmd/negativa-served:
//
//	POST /v1/jobs                   submit a batch job (JobRequest body;
//	                                "base" extends a completed job)
//	GET  /v1/jobs                   list job statuses
//	GET  /v1/jobs/{id}              one job's status
//	GET  /v1/jobs/{id}/report       full report of a completed job
//	GET  /v1/jobs/{id}/libs/{name}  download one debloated library
//	GET  /v1/metrics                counters, cache stats, timing summaries
//	GET  /v1/store                  content-addressed store stats (404 when
//	                                the service runs without a data dir)
//
// plus the node-to-node /v1/peer/* routes (see peer.go) that cluster
// peers use for stage read-through, install pushes, and castore object
// transfer. docs/API.md documents every route with examples kept
// honest by TestAPIDocExamples.
func NewHandler(s *Service) http.Handler {
	return newMux(s)
}

// maxRequestBytes bounds job-submission bodies; a maximal legitimate
// request (MaxJobWorkloads fully-specified workloads) is a few KB.
const maxRequestBytes = 1 << 20

func newMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		// Cap the body before decoding: size limits in Validate cannot
		// protect against a request that OOMs the decoder itself.
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
		var req JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, fmt.Errorf("decode request: %w", err))
			return
		}
		job, err := s.Submit(req)
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrBusy):
				code = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint(&Job{})))
			case errors.Is(err, ErrUnknownBase):
				code = http.StatusNotFound
			case errors.Is(err, ErrBaseNotReady):
				code = http.StatusConflict
			}
			httpError(w, code, err)
			return
		}
		writeJSON(w, http.StatusAccepted, statusOf(job))
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs := s.Jobs()
		out := make([]jobStatus, len(jobs))
		for i, j := range jobs {
			out[i] = statusOf(j)
		}
		writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job := s.Job(r.PathValue("id"))
		if job == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		if job.State == JobQueued || job.State == JobRunning {
			// Polling hint: how long until the job is plausibly done, from
			// the recent job-wall distribution. Clients that prefer pushes
			// should use /v1/jobs/{id}/events instead.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterHint(job)))
		}
		writeJSON(w, http.StatusOK, statusOf(job))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if s.Job(id) == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		}
		ServeEvents(w, r, func(after int) ([]JobEvent, bool, <-chan struct{}) {
			evs, done, ch, err := s.JobEvents(id, after)
			if err != nil {
				// Evicted mid-stream: end the stream rather than hang.
				return nil, true, nil
			}
			return evs, done, ch
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		job := s.Job(r.PathValue("id"))
		if job == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		// ResultOf rebuilds a restored job's result on first use.
		res, err := s.ResultOf(job.ID)
		switch {
		case errors.Is(err, ErrUnknownJob):
			// Evicted between the snapshot above and the result lookup.
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", job.ID))
			return
		case errors.Is(err, ErrJobNotReady):
			httpError(w, http.StatusConflict, fmt.Errorf("job %s is %s; no report yet", job.ID, job.State))
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, reportOf(job, res))
	})
	mux.HandleFunc("GET /v1/jobs/{id}/libs/{name}", func(w http.ResponseWriter, r *http.Request) {
		id, name := r.PathValue("id"), r.PathValue("name")
		// The stream pins the job until Close: eviction cannot release the
		// images (in memory or in the store) under an in-flight response.
		ls, err := s.OpenLibStream(id, name)
		switch {
		case errors.Is(err, ErrUnknownJob):
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
			return
		case errors.Is(err, ErrJobNotReady):
			httpError(w, http.StatusConflict, fmt.Errorf("job %s has no libraries yet", id))
			return
		case errors.Is(err, ErrUnknownLib):
			httpError(w, http.StatusNotFound, fmt.Errorf("job %s has no library %q", id, name))
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		defer ls.Close()
		// Stream the sparse image: retained ranges come straight from the
		// original bytes, zeroed ranges from a shared scratch buffer — the
		// handler never materializes a full library copy.
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name))
		w.Header().Set("Content-Length", strconv.FormatInt(ls.Size, 10))
		w.WriteHeader(http.StatusOK)
		ls.WriteTo(w)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.MetricsPayload())
	})
	mux.HandleFunc("GET /v1/store", func(w http.ResponseWriter, r *http.Request) {
		st := s.Store()
		if st == nil {
			httpError(w, http.StatusNotFound, errors.New("no data dir configured (start with -data-dir)"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"dir": st.Dir(), "stats": st.Stats()})
	})
	registerPeerRoutes(mux, s)
	return mux
}

// jobStatus is the compact job view returned by submit/list/status.
type jobStatus struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Framework string    `json:"framework,omitempty"`
	// IngestDir echoes the ingestion-mode request directory; Framework is
	// empty on such jobs (the tree's manifest names it).
	IngestDir string `json:"ingest_dir,omitempty"`
	Workloads int    `json:"workloads"`
	// Progress is the monotone completed-stage fraction (0..1, exactly 1
	// once done); StagesDone/StagesTotal are its integer parts. A job
	// restored after a restart reports 1 with zero counts — its per-stage
	// history did not survive, its completion did.
	Progress    float64 `json:"progress"`
	StagesDone  int     `json:"stages_done"`
	StagesTotal int     `json:"stages_total"`
	// Base names the job this one incrementally extends, when submitted
	// with one.
	Base string `json:"base,omitempty"`

	// Summary fields, present once the job is done. Verified is vacuously
	// true when VerifySkipped — check both.
	Verified      *bool `json:"verified,omitempty"`
	VerifySkipped bool  `json:"verify_skipped,omitempty"`
	CacheHits     *int  `json:"cache_hits,omitempty"`
	CacheMisses   *int  `json:"cache_misses,omitempty"`
}

func statusOf(j *Job) jobStatus {
	st := jobStatus{
		ID:          j.ID,
		State:       j.State,
		Error:       j.Err,
		Submitted:   j.Submitted,
		Framework:   j.Req.Framework,
		IngestDir:   j.Req.IngestDir,
		Workloads:   len(j.Req.Workloads),
		Progress:    j.Progress(),
		StagesDone:  j.StagesDone,
		StagesTotal: j.StagesTotal,
		Base:        j.Req.Base,
	}
	switch {
	case j.Result != nil:
		v := j.Result.AllVerified()
		st.Verified = &v
		st.VerifySkipped = j.Result.VerifySkipped
		st.CacheHits = &j.Result.CacheHits
		st.CacheMisses = &j.Result.CacheMisses
	case j.manifest != nil && j.State == JobDone:
		// Restored job not yet rebuilt: the manifest carries the
		// summary, so status stays cheap (no store reads).
		v := j.manifest.allVerified()
		st.Verified = &v
		st.VerifySkipped = j.manifest.VerifySkipped
		st.CacheHits = &j.manifest.CacheHits
		st.CacheMisses = &j.manifest.CacheMisses
	}
	return st
}

// jobReport is the full JSON report of a completed job. Library images are
// not inlined — fetch them via /v1/jobs/{id}/libs/{name}.
type jobReport struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	InstallFP string `json:"install_fingerprint"`
	Union     string `json:"union_workload"`

	Workloads []workloadReport `json:"workloads"`
	Libs      []libReport      `json:"libs"`

	Totals totalsReport `json:"totals"`

	DetectMS      float64 `json:"detect_virtual_ms"`
	AnalysisMS    float64 `json:"analysis_virtual_ms"`
	EndToEndMS    float64 `json:"end_to_end_virtual_ms"`
	WallMS        float64 `json:"wall_ms"`
	CacheHits     int     `json:"cache_hits"`
	CacheMisses   int     `json:"cache_misses"`
	ProfileReuses int     `json:"profile_reuses"`
	VerifySkipped bool    `json:"verify_skipped,omitempty"`
	// Incremental summarizes base absorption for jobs submitted with a
	// base.
	Incremental *IncrementalStats `json:"incremental,omitempty"`
}

type workloadReport struct {
	Name          string  `json:"name"`
	RefDigest     string  `json:"ref_digest"`
	Verified      bool    `json:"verified"`
	ProfileReused bool    `json:"profile_reused"`
	DetectMS      float64 `json:"detect_virtual_ms"`
}

type libReport struct {
	Name          string  `json:"name"`
	FileKB        float64 `json:"file_kb"`
	FileAfterKB   float64 `json:"file_after_kb"`
	FileRedPct    float64 `json:"file_red_pct"`
	ResidentKB    float64 `json:"resident_kb"`
	ResidentAfKB  float64 `json:"resident_after_kb"`
	CPURedPct     float64 `json:"cpu_red_pct"`
	GPURedPct     float64 `json:"gpu_red_pct"`
	FuncsKept     int     `json:"funcs_kept"`
	FuncsTotal    int     `json:"funcs_total"`
	ElemsKept     int     `json:"elems_kept"`
	ElemsTotal    int     `json:"elems_total"`
	RemovedArch   int     `json:"removed_arch_mismatch"`
	RemovedUnused int     `json:"removed_no_used_kernel"`
}

type totalsReport struct {
	Libs        int     `json:"libs"`
	FileKB      float64 `json:"file_kb"`
	FileAfterKB float64 `json:"file_after_kb"`
	FileRedPct  float64 `json:"file_red_pct"`
	CPURedPct   float64 `json:"cpu_red_pct"`
	GPURedPct   float64 `json:"gpu_red_pct"`
	FuncRedPct  float64 `json:"func_red_pct"`
	ElemRedPct  float64 `json:"elem_red_pct"`
}

func reportOf(j *Job, res *BatchResult) jobReport {
	rep := jobReport{
		ID:            j.ID,
		State:         j.State,
		InstallFP:     res.InstallFP,
		Union:         res.Union.Workload,
		DetectMS:      ms(res.DetectTime),
		AnalysisMS:    ms(res.AnalysisTime),
		EndToEndMS:    ms(res.EndToEnd()),
		WallMS:        ms(res.WallTime),
		CacheHits:     res.CacheHits,
		CacheMisses:   res.CacheMisses,
		ProfileReuses: res.ProfileReuses,
		VerifySkipped: res.VerifySkipped,
		Incremental:   res.Incremental,
	}
	for _, o := range res.Workloads {
		rep.Workloads = append(rep.Workloads, workloadReport{
			Name:          o.Name,
			RefDigest:     fmt.Sprintf("%016x", o.RefDigest),
			Verified:      o.Verified,
			ProfileReused: o.ProfileReused,
			DetectMS:      ms(o.DetectTime),
		})
	}
	for _, lr := range res.Libs {
		rep.Libs = append(rep.Libs, libReport{
			Name:          lr.Name,
			FileKB:        kb(lr.FileEffective),
			FileAfterKB:   kb(lr.FileEffectiveAfter),
			FileRedPct:    lr.FileReductionPct(),
			ResidentKB:    kb(lr.ResidentBytes),
			ResidentAfKB:  kb(lr.ResidentBytesAfter),
			CPURedPct:     lr.CPUReductionPct(),
			GPURedPct:     lr.GPUReductionPct(),
			FuncsKept:     lr.FuncKept,
			FuncsTotal:    lr.FuncCount,
			ElemsKept:     lr.ElemKept,
			ElemsTotal:    lr.ElemCount,
			RemovedArch:   lr.RemovedArchMismatch,
			RemovedUnused: lr.RemovedNoUsedKernel,
		})
	}
	rep.Totals = totalsOf(res.Aggregate())
	return rep
}

func totalsOf(t negativa.Totals) totalsReport {
	return totalsReport{
		Libs:        t.Libs,
		FileKB:      kb(t.FileEffective),
		FileAfterKB: kb(t.FileEffectiveAfter),
		FileRedPct:  t.FileReductionPct(),
		CPURedPct:   t.CPUReductionPct(),
		GPURedPct:   t.GPUReductionPct(),
		FuncRedPct:  t.FuncReductionPct(),
		ElemRedPct:  t.ElemReductionPct(),
	}
}

// Progress derives the monotone progress fraction: completed stages over
// planned stages, pinned to 1 for done jobs (including restored ones whose
// stage counts did not survive the restart).
func (j *Job) Progress() float64 {
	if j.State == JobDone {
		return 1
	}
	if j.StagesTotal <= 0 {
		return 0
	}
	p := float64(j.StagesDone) / float64(j.StagesTotal)
	if p > 1 {
		p = 1
	}
	return p
}

// retryAfterHint estimates, in whole seconds (≥ 1), how long a poller
// should wait before asking about a queued/running job again: the recent
// median job wall time minus what this job has already spent, clamped to
// [1, 30].
func (s *Service) retryAfterHint(j *Job) int {
	est := s.Timings.Summary("job.wall").P50 // milliseconds
	if j.State == JobRunning && !j.Started.IsZero() {
		est -= ms(time.Since(j.Started))
	}
	secs := int((est + 999) / 1000)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// MetricsPayload assembles the /v1/metrics response body. The gateway
// reuses it to serve a merged metrics view with its own section added.
func (s *Service) MetricsPayload() map[string]any {
	out := map[string]any{
		"counters": s.Counters.Snapshot(),
		"cache":    s.Cache.StageStats(negativa.StageCompact),
		"stages":   stageStats(s.Counters, s.Cache),
		"timings":  s.Timings.Snapshot(),
		"workers":  s.Workers(),
	}
	if st := s.Store(); st != nil {
		out["store"] = st.Stats()
	}
	if ps := peerStats(s); ps != nil {
		out["peer"] = ps
	}
	return out
}

// eventsPollDefault and eventsPollMax bound a long-poll's blocking time.
const (
	eventsPollDefault = 0
	eventsPollMax     = 60 * time.Second
)

// ServeEvents renders a job event stream over HTTP from an After-style
// source (see EventLog.After). Two modes, negotiated by the Accept header:
//
//   - text/event-stream: SSE. Every buffered event replays as one `data:`
//     line, new events stream as they arrive, and the response ends after
//     the terminal event (or when the client disconnects).
//   - otherwise: long-poll JSON. ?after=N returns events with Seq > N
//     (default all); ?timeout_ms=M blocks up to M milliseconds (capped at
//     60000) when no fresh events exist. The body is
//     {"events": [...], "done": bool} — an empty events array with
//     done=false means the poll timed out.
//
// The gateway serves its own job streams through this same renderer, so
// both layers speak one wire format.
func ServeEvents(w http.ResponseWriter, r *http.Request, after func(int) ([]JobEvent, bool, <-chan struct{})) {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		serveEventsSSE(w, r, after)
		return
	}
	from := -1
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
			return
		}
		from = n
	}
	timeout := time.Duration(eventsPollDefault)
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", v))
			return
		}
		timeout = time.Duration(n) * time.Millisecond
		if timeout > eventsPollMax {
			timeout = eventsPollMax
		}
	}
	evs, done, ch := after(from)
	if len(evs) == 0 && !done && timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-ch:
			evs, done, _ = after(from)
		case <-t.C:
		case <-r.Context().Done():
			return
		}
	}
	if evs == nil {
		evs = []JobEvent{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"events": evs, "done": done})
}

func serveEventsSSE(w http.ResponseWriter, r *http.Request, after func(int) ([]JobEvent, bool, <-chan struct{})) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, errors.New("response writer does not support streaming"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	// One pooled frame buffer and one encoder per subscriber, reused for
	// the whole stream: a fan-out of N watchers costs N buffers total, not
	// one marshal allocation per event per watcher, and each wake-up's
	// events leave in a single Write.
	buf := bufpool.GetBuffer()
	defer bufpool.PutBuffer(buf)
	enc := json.NewEncoder(buf)
	last := -1
	for {
		evs, done, ch := after(last)
		if len(evs) > 0 {
			buf.Reset()
			for _, e := range evs {
				buf.WriteString("data: ")
				if err := enc.Encode(e); err != nil {
					return
				}
				// Encode appended the JSON's trailing newline; the second
				// ends the SSE frame.
				buf.WriteByte('\n')
				last = e.Seq
			}
			if _, err := w.Write(buf.Bytes()); err != nil {
				return
			}
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func kb(n int64) float64 { return float64(n) / 1024 }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
