package dserve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/elfx"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
	"negativaml/internal/plan"
)

// The peer wire protocol. Every route lives under /v1/peer/ and is spoken
// only between dserve nodes of one cluster:
//
//	POST /v1/peer/lookup-batch           read-through: return already-
//	                                     memoized stage values by content key,
//	                                     up to maxBatchLookupKeys per request
//	POST /v1/peer/detect                 execute a detect stage on its
//	                                     owning shard (registry-memoized)
//	GET  /v1/peer/install/{fingerprint}  a resident install in transfer
//	                                     form, for an owner about to
//	                                     execute a detect against it
//	PUT  /v1/peer/objects/{kind}/{key}   push one castore object in its
//	                                     integrity-framed wire format
//	POST /v1/peer/stat                   which of these objects do you hold
//
// The surface is node-to-node only: routes answer 404 unless a cluster is
// attached, and a cluster configured with a shared secret (see
// cluster.Options.Secret) additionally requires it on every request.
//
// Compact and verifyrun stages are read-through only: a miss ships no
// payload, and the requester — which holds the library images — computes
// the stage itself and writes the O(ranges) result, or the verify record,
// back to the key's owners (repair.go). A replica's verify record is
// trusted exactly as a replica's profile is: under the key it was asked
// for. Detect
// requests are a small workload spec, so a hinted requester goes straight
// to the execute route (which starts with the owner's registry probe).
// Lookup responses hand back the same durable forms the castore disk tier
// uses (storedResult JSON + encoded sparse range set, the very bytes on
// disk), which the requester decodes against its own live library — the
// digest-bound sparse codec makes a mismatched or corrupted payload a decode
// error, never a wrong image.
//
// A ring runs one protocol: a peer that answers any of these routes with a
// non-2xx status is a failed peer for that call, and a failed peer means
// local compute. Nothing is negotiated per request.

// peerLookupRequest is one key of a batch lookup: a stage value the peer may
// have memoized.
type peerLookupRequest struct {
	Stage string `json:"stage"`
	Hash  string `json:"hash"`
}

// peerLookupResponse carries the stage value when found: a detection
// profile for detect stages, a stored result + encoded sparse range set
// for compact stages, the run's result for verifyrun stages.
type peerLookupResponse struct {
	Found   bool              `json:"found"`
	Profile *negativa.Profile `json:"profile,omitempty"`
	Result  *storedResult     `json:"result,omitempty"`
	Sparse  []byte            `json:"sparse,omitempty"`
	Verify  *mlruntime.Result `json:"verify,omitempty"`
}

// peerBatchLookupRequest asks a peer for many stage values in one round
// trip — the scatter half of the batch-prefetch path. Keys are capped at
// maxBatchLookupKeys per request; requesters chunk above that.
type peerBatchLookupRequest struct {
	Keys []peerLookupRequest `json:"keys"`
}

// peerBatchLookupResponse answers index-aligned with the request's keys.
// A key the peer does not hold (or cannot parse) is found=false — a batch
// lookup never fails because one key was bad.
type peerBatchLookupResponse struct {
	Results []peerLookupResponse `json:"results"`
}

// maxBatchLookupKeys bounds one batch lookup, so a single request cannot
// make a peer do unbounded memo reads (mirrors maxStatObjects on the
// repair plane).
const maxBatchLookupKeys = 256

// peerLookupBatchLimit bounds a lookup-batch request body: a full batch of
// keys at a generous 1 KiB of JSON each (a compact key is ~100 bytes, a
// detect key carries a workload identity of a few hundred).
const peerLookupBatchLimit = maxBatchLookupKeys << 10

// peerDetectRequest executes one detect stage on its owning shard. The
// fingerprint pins the request to the bytes the requester holds; From
// names the requester, which has that install resident and serves it on
// GET /v1/peer/install/{fingerprint}. Framework and tail-libs are the
// install's spec key: the owner registers the fetched install under it,
// and regenerates from it when the fetch fails (installs are
// deterministic functions of their config).
type peerDetectRequest struct {
	InstallFP string       `json:"install_fp"`
	Identity  string       `json:"identity"`
	From      string       `json:"from,omitempty"`
	Framework string       `json:"framework"`
	TailLibs  int          `json:"tail_libs"`
	MaxSteps  int          `json:"max_steps"`
	Spec      WorkloadSpec `json:"spec"`
}

type peerDetectResponse struct {
	Profile *negativa.Profile `json:"profile"`
	// Hit reports the profile was already registered on the owner.
	Hit bool `json:"hit"`
}

// peerBodyLimit bounds one pushed object (PUT /v1/peer/objects/...):
// write-back and repair stream whole library images, so the bound is far
// above the client-facing maxRequestBytes. The JSON
// routes carry no payloads and decode under limits sized from their key
// bounds (peerLookupBatchLimit, peerStatLimit).
const peerBodyLimit = 256 << 20

// registerPeerRoutes mounts the node-to-node API. Every route is guarded
// by peerAuth: a node with no cluster attached refuses peer traffic
// outright, and a cluster configured with a shared secret refuses
// requests that do not present it.
func registerPeerRoutes(mux *http.ServeMux, s *Service) {
	mux.HandleFunc("POST /v1/peer/lookup-batch", s.peerAuth(s.handlePeerLookupBatch))
	mux.HandleFunc("POST /v1/peer/detect", s.peerAuth(s.handlePeerDetect))
	mux.HandleFunc("GET /v1/peer/install/{fingerprint}", s.peerAuth(s.handlePeerInstall))
	mux.HandleFunc("PUT /v1/peer/objects/{kind}/{key}", s.peerAuth(s.handlePeerObjectPut))
	mux.HandleFunc("POST /v1/peer/stat", s.peerAuth(s.handlePeerStat))
	mux.HandleFunc("POST "+cluster.PingPath, s.peerAuth(s.handlePeerPing))
	mux.HandleFunc("POST "+cluster.JoinPath, s.peerAuth(s.handlePeerJoin))
	mux.HandleFunc("POST "+cluster.LeavePath, s.peerAuth(s.handlePeerLeave))
}

// peerAuth guards one node-to-node route. The peer surface exists only on
// clustered nodes — anywhere else it is 404, indistinguishable from an
// unmounted route, so a standalone (or gateway-fronted) deployment exposes
// no analysis-compute or object-transfer endpoints to strangers. When the
// attached cluster carries a shared secret, every request must present it
// in cluster.PeerSecretHeader; the comparison is constant-time. A cluster
// without a secret still answers any request that reaches it — that mode
// is for deployments whose peer network is isolated from client traffic
// (see docs/API.md).
func (s *Service) peerAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := s.Cluster()
		if c == nil {
			httpError(w, http.StatusNotFound, errors.New("peer API requires cluster mode (start with -peers)"))
			return
		}
		if secret := c.Secret(); secret != "" {
			got := r.Header.Get(cluster.PeerSecretHeader)
			if subtle.ConstantTimeCompare([]byte(got), []byte(secret)) != 1 {
				httpError(w, http.StatusUnauthorized, errors.New("missing or wrong peer secret"))
				return
			}
		}
		h(w, r)
	}
}

func decodePeerBody(w http.ResponseWriter, r *http.Request, limit int64, into any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("decode peer request: %w", err))
		return false
	}
	return true
}

// lookupStage resolves one read-through key against this node's local
// tiers (memory, then castore), answering in durable wire form. The error
// names an unservable key (unknown stage, malformed hash); a clean miss is
// found=false with no error.
func (s *Service) lookupStage(key peerLookupRequest) (peerLookupResponse, error) {
	resp := peerLookupResponse{}
	switch key.Stage {
	case negativa.StageDetect:
		fp, wid, ok := negativa.SplitDetectHash(key.Hash)
		if !ok {
			return resp, errors.New("malformed detect hash")
		}
		if p, ok := s.Registry.Get(ProfileKey{Install: fp, Workload: wid}); ok {
			resp.Found, resp.Profile = true, p
		}
	case negativa.StageCompact:
		if ld, ok := s.Cache.Get(key.Hash); ok && ld.Report != nil && ld.Report.Sparse != nil {
			sr := storedResultOf(ld)
			resp.Found, resp.Result, resp.Sparse = true, &sr, ld.Report.Sparse.EncodeWire()
		} else if s.store != nil {
			raw, ok1 := s.store.Get(kindResult, key.Hash)
			enc, ok2 := s.store.Get(kindSparse, key.Hash)
			if ok1 && ok2 {
				var sr storedResult
				if err := json.Unmarshal(raw, &sr); err == nil {
					resp.Found, resp.Result, resp.Sparse = true, &sr, enc
				}
			}
		}
	case negativa.StageVerifyRun:
		r, _, ok := s.stages.localVerify(key.Hash)
		resp.Found, resp.Verify = ok, r
	default:
		return resp, fmt.Errorf("stage %q has no peer lookup", key.Stage)
	}
	if resp.Found {
		s.Counters.Add("peer.served_hits", 1)
	}
	return resp, nil
}

// handlePeerLookupBatch is the scatter-gather read-through route: many
// keys in, index-aligned answers out, one round trip — the batch-prefetch
// path that serves a peer-warm batch's stage values in one request per
// replica group. A value this node already holds in memory or in its
// castore answers in durable wire form; a miss or an unservable key answers
// found=false in place, never an error — the requester decides what to do
// about it (execute a detect on its owner, compute a compact itself).
func (s *Service) handlePeerLookupBatch(w http.ResponseWriter, r *http.Request) {
	var req peerBatchLookupRequest
	if !decodePeerBody(w, r, peerLookupBatchLimit, &req) {
		return
	}
	if len(req.Keys) > maxBatchLookupKeys {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch of %d keys exceeds the %d bound", len(req.Keys), maxBatchLookupKeys))
		return
	}
	s.Counters.Add("peer.served_batches", 1)
	s.Counters.Add("peer.served_lookups", int64(len(req.Keys)))
	resp := peerBatchLookupResponse{Results: make([]peerLookupResponse, len(req.Keys))}
	for i, key := range req.Keys {
		lr, err := s.lookupStage(key)
		if err != nil {
			continue // found=false in place
		}
		resp.Results[i] = lr
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerDetect executes a detect stage as its owning shard: the
// install is resolved down Service.install's ladder — resident here, else
// fetched from the requester, else regenerated from the request config —
// pinned to the requester's fingerprint, profiled, and registered, so the
// owner memoizes what it executed and every later lookup for this key
// hits. Execution (not the registry fast path, nor a request that fails
// validation) is bounded by the peer-execution semaphore so a busy shard
// cannot be driven past its worker width.
func (s *Service) handlePeerDetect(w http.ResponseWriter, r *http.Request) {
	var req peerDetectRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	s.Counters.Add("peer.served_detects", 1)
	pk := ProfileKey{Install: req.InstallFP, Workload: req.Identity}
	if p, ok := s.Registry.Get(pk); ok {
		writeJSON(w, http.StatusOK, peerDetectResponse{Profile: p, Hit: true})
		return
	}
	fw, err := ResolveFramework(req.Framework)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.TailLibs < 0 || req.TailLibs > MaxTailLibs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("tail_libs %d out of range", req.TailLibs))
		return
	}
	if req.MaxSteps < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("max_steps %d out of range", req.MaxSteps))
		return
	}
	if err := req.Spec.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Only a request that will resolve an install and profile it waits for,
	// and holds, an execution slot; a malformed one was answered above.
	s.peerSem <- struct{}{}
	defer func() { <-s.peerSem }()
	in, err := s.install(fw, req.TailLibs, req.From, req.InstallFP)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if got := negativa.InstallFingerprint(in); got != req.InstallFP {
		// The install this node holds or generated for the same config is
		// not the requester's (a copy fetched from the requester fails
		// this check before it is kept) — a version skew a profile must
		// never paper over.
		httpError(w, http.StatusConflict, fmt.Errorf("install fingerprint mismatch: have %.12s…, requested %.12s…", got, req.InstallFP))
		return
	}
	wl, err := req.Spec.Workload(in)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if id := negativa.WorkloadIdentity(wl, req.MaxSteps); id != req.Identity {
		httpError(w, http.StatusBadRequest, fmt.Errorf("workload identity mismatch: spec resolves to %q", id))
		return
	}
	p, err := negativa.DetectUsage(wl, req.MaxSteps)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.Registry.Put(pk, p)
	s.Counters.Add("peer.executed_detects", 1)
	writeJSON(w, http.StatusOK, peerDetectResponse{Profile: p})
}

// handlePeerInstall serves a resident install in its transfer form
// (mlframework.ReadWire) to an owner about to execute a detect stage
// against it. It takes no slot — neither the pool's nor peerSem — so a
// requester whose every slot is held, its batch waiting on that very
// owner's detect, still answers: no cross-node wait cycle can form. An
// install not resident here (never resolved, or evicted) is 404, and the
// owner generates it instead.
func (s *Service) handlePeerInstall(w http.ResponseWriter, r *http.Request) {
	in := s.residentInstall(r.PathValue("fingerprint"))
	if in == nil {
		httpError(w, http.StatusNotFound, errors.New("install not resident"))
		return
	}
	s.Counters.Add("peer.served_installs", 1)
	w.Header().Set("Content-Type", "application/octet-stream")
	// A write that fails mid-stream leaves the owner a truncated install,
	// which ReadWire refuses; the owner then generates it.
	_ = in.WriteWire(w)
}

// peerObjectRef names one castore object on the stat wire.
type peerObjectRef struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
}

// peerStatRequest asks which of a batch of objects the peer holds — the
// repair plane's probe. Batched so one round trip covers a whole repair
// round's candidate set (or a chunk of it).
type peerStatRequest struct {
	Objects []peerObjectRef `json:"objects"`
}

// peerStatResponse answers presence per requested object, index-aligned.
type peerStatResponse struct {
	Present []bool `json:"present"`
}

// maxStatObjects bounds one stat probe. Repair chunks its candidate sets
// under this, and a hostile request cannot make the node do unbounded
// work in one call.
const maxStatObjects = 4096

// peerStatLimit bounds a stat request body: a full probe of object refs at
// 128 bytes of JSON each (kind plus a hex digest key is ~90).
const peerStatLimit = maxStatObjects << 7

// handlePeerPing answers the heartbeat/probe route: membership gossip in
// both directions, and the liveness signal that readmits this node on
// peers that had marked it down.
func (s *Service) handlePeerPing(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	s.Counters.Add("peer.served_pings", 1)
	writeJSON(w, http.StatusOK, s.Cluster().HandleHeartbeat(req))
}

// handlePeerJoin admits a node into this node's membership view and
// answers with the full live member set, so a joiner learns the cluster
// from any one member. Gossip spreads the addition to everyone else.
func (s *Service) handlePeerJoin(w http.ResponseWriter, r *http.Request) {
	var req cluster.JoinRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	c := s.Cluster()
	if req.ID == "" || req.URL == "" {
		httpError(w, http.StatusBadRequest, errors.New("join requires id and url"))
		return
	}
	if req.ID == c.Self() {
		httpError(w, http.StatusBadRequest, fmt.Errorf("node %q cannot join itself", req.ID))
		return
	}
	c.AddPeer(req.ID, req.URL)
	s.Counters.Add("peer.served_joins", 1)
	writeJSON(w, http.StatusOK, cluster.JoinResponse{Nodes: c.Membership()})
}

// handlePeerLeave retires a node from this node's membership view and
// tombstones its ID against gossip resurrection. The leaving node calls
// this on every peer after handing its primary-owned objects off.
func (s *Service) handlePeerLeave(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaveRequest
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, errors.New("leave requires id"))
		return
	}
	s.Cluster().RemovePeer(req.ID)
	s.Counters.Add("peer.served_leaves", 1)
	writeJSON(w, http.StatusOK, map[string]bool{"removed": true})
}

// handlePeerStat answers a batched presence probe against the local
// castore — the cheap half of anti-entropy repair (the expensive half,
// streaming, only runs for objects this route reports absent).
func (s *Service) handlePeerStat(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no data dir configured"))
		return
	}
	var req peerStatRequest
	if !decodePeerBody(w, r, peerStatLimit, &req) {
		return
	}
	if len(req.Objects) > maxStatObjects {
		httpError(w, http.StatusBadRequest, fmt.Errorf("stat of %d objects exceeds the %d bound", len(req.Objects), maxStatObjects))
		return
	}
	s.Counters.Add("peer.served_stats", 1)
	present := make([]bool, len(req.Objects))
	for i, o := range req.Objects {
		present[i] = st.Has(o.Kind, o.Key)
	}
	writeJSON(w, http.StatusOK, peerStatResponse{Present: present})
}

// handlePeerObjectPut receives one pushed object in its integrity-framed
// wire format (castore.Export on the pushing side) — the replication /
// repair / handoff ingest path. Import verifies the end-to-end checksum and
// cleans up after truncated or corrupt streams, so a dying pusher leaves
// no partial state here. Pushed kinds are restricted to the replication
// set. A pushed profile snapshot is additionally ingested into the live
// registry (imports land in the store, but detect lookups are served from
// memory); a snapshot that does not parse as a usable profile is removed
// again and refused.
func (s *Service) handlePeerObjectPut(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no data dir configured"))
		return
	}
	kind, key := r.PathValue("kind"), r.PathValue("key")
	switch kind {
	case kindLib, kindSparse, kindResult, kindProfile, kindVerify:
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("kind %q is not replicated", kind))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, peerBodyLimit+castore.HeaderSize)
	n, err := st.Import(kind, key, r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("import %s/%s: %w", kind, key, err))
		return
	}
	if kind == kindProfile {
		raw, ok := st.Get(kind, key)
		var sp storedProfile
		if !ok || json.Unmarshal(raw, &sp) != nil || sp.Profile == nil || sp.Profile.RunResult == nil {
			st.Delete(kind, key)
			httpError(w, http.StatusBadRequest, errors.New("pushed profile snapshot is not usable"))
			return
		}
		s.Registry.Put(ProfileKey{Install: sp.Install, Workload: sp.Workload}, sp.Profile)
	}
	s.Counters.Add("peer.objects_received", 1)
	writeJSON(w, http.StatusOK, map[string]int64{"bytes": n})
}

// ---- Requester side: the stage memo's peer tier ----

// detectHint carries what the peer tier needs to execute a detect stage on
// its owning shard. Attached to detect nodes by DebloatBatch when the
// batch arrived with its workload specs (the HTTP path); library callers
// without specs simply detect locally on a registry miss.
type detectHint struct {
	framework string
	tailLibs  int
	maxSteps  int
	spec      WorkloadSpec
}

// peerDetect resolves a detect stage through its owning peer: the hint (the
// workload spec) goes straight to /v1/peer/detect in one round trip — that
// route begins with the owner's own registry probe and the request is a
// small spec. ok=false means the caller should compute locally; the failure
// has already been counted.
func (m *StageMemo) peerDetect(slot plan.Executor, owner, hash string, hint *detectHint) (*negativa.Profile, bool) {
	fp, wid, ok := negativa.SplitDetectHash(hash)
	if !ok {
		return nil, false
	}
	req := peerDetectRequest{
		InstallFP: fp, Identity: wid, From: m.cluster.Self(),
		Framework: hint.framework, TailLibs: hint.tailLibs,
		MaxSteps: hint.maxSteps, Spec: hint.spec,
	}
	var dr peerDetectResponse
	if err := m.postJSON(slot, owner, "/v1/peer/detect", req, &dr); err != nil || dr.Profile == nil || dr.Profile.RunResult == nil {
		m.count("peer.fallbacks")
		return nil, false
	}
	if !dr.Hit {
		// The owner had nothing memoized and executed the stage for us.
		m.count("peer.misses")
		m.count("peer.remote_execs")
	}
	m.count("peer.hits")
	return dr.Profile, true
}

// decodePeerResult rebuilds a locate+compact result from its wire form
// against the requester's live library.
func decodePeerResult(lib *elfx.Library, sr *storedResult, enc []byte) (*negativa.LibDebloat, bool) {
	if sr == nil || len(enc) == 0 || lib == nil {
		return nil, false
	}
	if sr.LibDigest != digestHex(lib) {
		return nil, false
	}
	sparse, err := negativa.DecodeSparseImage(lib, enc)
	if err != nil {
		return nil, false
	}
	return &negativa.LibDebloat{Report: sr.report(sparse), Analysis: time.Duration(sr.AnalysisNS)}, true
}
