package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

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
// route requires a tenant API key, a job ID is the backend's and answers
// only to tenants riding that job (404 for everyone else), report and
// library fetches pass through to the inner handler once that is checked,
// and /v1/metrics serves the merged payload scoped to the requesting
// tenant. The node-to-node /v1/peer/* routes are forwarded — without
// tenant auth, since peers authenticate with the cluster secret — only
// when Config.PeerPassthrough is set; otherwise the gateway answers 404 so
// tenants can never reach the peer surface.
func NewHandler(g *Gateway, inner http.Handler) http.Handler {
	h := &handler{g: g, inner: inner}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("GET /v1/jobs/{id}/report", h.fetch)
	mux.HandleFunc("GET /v1/jobs/{id}/libs/{name}", h.fetch)
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
		case errors.Is(err, dserve.ErrUnknownBase):
			httpError(w, http.StatusNotFound, err)
		case errors.Is(err, dserve.ErrBaseNotReady):
			httpError(w, http.StatusConflict, err)
		case errors.Is(err, dserve.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err)
		default:
			httpError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, view)
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": h.g.Jobs(tenantOf(r))})
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view := h.g.Job(tenantOf(r), id)
	if view == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if view.State == dserve.JobQueued || view.State == dserve.JobRunning {
		w.Header().Set("Retry-After", strconv.Itoa(h.g.RetryAfterHint()))
	}
	writeJSON(w, http.StatusOK, view)
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
	writeJSON(w, http.StatusOK, view)
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

// fetch passes a report or library fetch through to the backend once the
// job is checked to be the tenant's: the gateway's job ID is the backend's.
func (h *handler) fetch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch view := h.g.Job(tenantOf(r), id); {
	case view == nil:
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	case view.State == dserve.JobCancelled:
		httpError(w, http.StatusConflict, fmt.Errorf("job %s is cancelled", id))
	default:
		h.inner.ServeHTTP(w, r)
	}
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.g.MetricsPayload(tenantOf(r)))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
