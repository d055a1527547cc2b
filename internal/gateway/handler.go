package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"negativaml/internal/dserve"
)

// maxRequestBytes bounds job-submission bodies, matching the backend's cap.
const maxRequestBytes = 1 << 20

type ctxKey int

const tenantKey ctxKey = iota

func tenantOf(r *http.Request) string {
	name, _ := r.Context().Value(tenantKey).(string)
	return name
}

// apiKey extracts the request's API key: Authorization: Bearer <key>, or
// the X-API-Key header.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if rest, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(rest)
		}
		return ""
	}
	return r.Header.Get("X-API-Key")
}

type handler struct {
	g     *Gateway
	inner http.Handler
	mux   *http.ServeMux
}

// NewHandler wraps the backend's HTTP API with the gateway: every /v1/
// route requires a tenant API key, job routes are served from the
// gateway's own tenant-scoped job table (backend job IDs never appear in
// client URLs), report and library fetches delegate to the inner handler
// after ID translation, and /v1/metrics serves the merged payload scoped
// to the requesting tenant. The node-to-node /v1/peer/* routes are
// forwarded — without tenant auth, since peers authenticate with the
// cluster secret — only when Config.PeerPassthrough is set; otherwise the
// gateway answers 404 so tenants can never reach the peer surface.
func NewHandler(g *Gateway, inner http.Handler) http.Handler {
	h := &handler{g: g, inner: inner}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("GET /v1/jobs/{id}/report", h.report)
	mux.HandleFunc("GET /v1/jobs/{id}/libs/{name}", h.lib)
	mux.HandleFunc("GET /v1/metrics", h.metrics)
	// Everything else (e.g. /v1/store) passes through, authenticated.
	mux.Handle("/", inner)
	h.mux = mux
	return h
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/v1/peer/") {
		// Node-to-node traffic: cluster peers are not tenants and carry no
		// API key — they authenticate with the cluster's shared secret at
		// the backend. Forward only on nodes explicitly configured as
		// cluster members; everywhere else the peer surface (analysis
		// compute, castore object transfer) must be unreachable to clients.
		if !h.g.cfg.PeerPassthrough {
			httpError(w, http.StatusNotFound, errors.New("peer API is not enabled on this node"))
			return
		}
		h.inner.ServeHTTP(w, r)
		return
	}
	tenant, ok := h.g.Authenticate(apiKey(r))
	if !ok {
		w.Header().Set("WWW-Authenticate", `Bearer realm="negativa"`)
		httpError(w, http.StatusUnauthorized, errors.New("missing or unknown API key"))
		return
	}
	h.mux.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey, tenant)))
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req dserve.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decode request: %w", err))
		return
	}
	view, err := h.g.Submit(tenantOf(r), req, r.Header.Get("X-Lane"))
	if err != nil {
		var shed *ShedError
		switch {
		case errors.As(err, &shed):
			w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfter))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error": shed.Error(), "reason": shed.Reason, "retry_after": shed.RetryAfter,
			})
		case errors.Is(err, ErrUnknownBase):
			httpError(w, http.StatusNotFound, err)
		case errors.Is(err, ErrBaseNotReady):
			httpError(w, http.StatusConflict, err)
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, statusOf(view))
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	views := h.g.Jobs(tenantOf(r))
	out := make([]gwStatus, len(views))
	for i, v := range views {
		out[i] = statusOf(v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view := h.g.Job(tenantOf(r), id)
	if view == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if view.State == JobQueued || view.State == JobRunning {
		w.Header().Set("Retry-After", strconv.Itoa(h.g.RetryAfterHint()))
	}
	writeJSON(w, http.StatusOK, statusOf(view))
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, err := h.g.Cancel(tenantOf(r), id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	case errors.Is(err, ErrNotCancellable):
		httpError(w, http.StatusConflict, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(view))
}

func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	tenant, id := tenantOf(r), r.PathValue("id")
	if h.g.Job(tenant, id) == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	dserve.ServeEvents(w, r, func(after int) ([]dserve.JobEvent, bool, <-chan struct{}) {
		evs, done, ch, err := h.g.JobEvents(tenant, id, after)
		if err != nil {
			// Evicted mid-stream: end the stream rather than hang.
			return nil, true, nil
		}
		return evs, done, ch
	})
}

func (h *handler) report(w http.ResponseWriter, r *http.Request) {
	h.delegate(w, r, func(dsID string) string {
		return "/v1/jobs/" + url.PathEscape(dsID) + "/report"
	})
}

func (h *handler) lib(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	h.delegate(w, r, func(dsID string) string {
		return "/v1/jobs/" + url.PathEscape(dsID) + "/libs/" + url.PathEscape(name)
	})
}

// delegate translates the gateway job ID to its backend ID and replays the
// request against the inner handler at the translated path.
func (h *handler) delegate(w http.ResponseWriter, r *http.Request, path func(dsID string) string) {
	id := r.PathValue("id")
	dsID, err := h.g.Upstream(tenantOf(r), id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	case errors.Is(err, ErrJobNotReady):
		httpError(w, http.StatusConflict, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if h.g.backend.Job(dsID) == nil {
		// The gateway still lists the job as done, but the backend's
		// MaxJobs pruning already evicted the result. Distinguish this
		// from "unknown job" so clients know the result existed and is
		// permanently gone (resubmit to recompute).
		httpError(w, http.StatusGone, fmt.Errorf("result for job %q was evicted from the backend; resubmit to recompute", id))
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = path(dsID)
	r2.URL.RawPath = ""
	h.inner.ServeHTTP(w, r2)
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.g.MetricsPayload(tenantOf(r)))
}

// gwStatus is the tenant-facing job view returned by submit/list/status/
// cancel. It mirrors the backend's status shape (state, progress, stage
// counts) plus the gateway's tenancy fields; detail beyond this comes from
// the delegated report route.
type gwStatus struct {
	ID        string    `json:"id"`
	Tenant    string    `json:"tenant"`
	Lane      string    `json:"lane"`
	State     string    `json:"state"`
	Error     string    `json:"error,omitempty"`
	Coalesced bool      `json:"coalesced,omitempty"`
	Submitted time.Time `json:"submitted"`
	Framework string    `json:"framework"`
	Workloads int       `json:"workloads"`
	// Base echoes the request's base as the backend job ID it resolved to.
	Base        string  `json:"base,omitempty"`
	Progress    float64 `json:"progress"`
	StagesDone  int     `json:"stages_done"`
	StagesTotal int     `json:"stages_total"`
	// Upstream is the backend job this one dispatched as, once dispatched.
	Upstream string `json:"upstream,omitempty"`
}

func statusOf(v *JobView) gwStatus {
	return gwStatus{
		ID: v.ID, Tenant: v.Tenant, Lane: v.Lane, State: v.State, Error: v.Err,
		Coalesced: v.Coalesced, Submitted: v.Submitted,
		Framework: v.Framework, Workloads: v.Workloads, Base: v.Base,
		Progress: progressOf(v), StagesDone: v.StagesDone, StagesTotal: v.StagesTotal,
		Upstream: v.Upstream,
	}
}

// progressOf mirrors the backend's monotone progress rule: 1 once done,
// else completed over planned stages (0 before planning). A cancelled or
// failed job keeps its last partial fraction.
func progressOf(v *JobView) float64 {
	if v.State == JobDone {
		return 1
	}
	if v.StagesTotal <= 0 {
		return 0
	}
	p := float64(v.StagesDone) / float64(v.StagesTotal)
	if p > 1 {
		p = 1
	}
	return p
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
