package dserve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"

	"negativaml/internal/castore"
	"negativaml/internal/cluster"
	"negativaml/internal/mlruntime"
	"negativaml/internal/negativa"
)

// The peer wire protocol. Every route lives under /v1/peer/ and is spoken
// only between dserve nodes of one cluster:
//
//	POST /v1/peer/lookup-batch           read-through: return already-
//	                                     memoized stage values by content key,
//	                                     up to maxBatchLookupKeys per request
//	POST /v1/peer/install-offer          a peer generated an install whose
//	                                     detect keys this node co-owns:
//	                                     pull it, keep it resident
//	GET  /v1/peer/install/{fingerprint}  a resident install in transfer
//	                                     form, pulled by an offered owner
//	PUT  /v1/peer/objects/{kind}/{key}   push one castore object in its
//	                                     integrity-framed wire format
//	POST /v1/peer/stat                   which of these objects do you hold
//
// The surface is node-to-node only: routes answer 404 unless a cluster is
// attached, and a cluster configured with a shared secret (see
// cluster.Options.Secret) additionally requires it on every request.
//
// No route runs analysis. Every stage is read-through only: a miss ships
// no payload, and the requester — which holds the install and the library
// images — computes the stage itself and writes the profile, the
// O(ranges) result, or the verify record back to the key's owners
// (repair.go). A replica's verify record is trusted exactly as a replica's
// profile is: under the key it was asked for. The install itself follows
// its profiles: a node that generated it offers it to the owners the
// profiles were written to, which pull it behind the batch.
// A compact lookup answers with the result's record, the very bytes the
// castore disk tier holds (negativa.EncodeRecord), which the requester
// decodes against its own live library — the digest-bound record makes a
// mismatched or corrupted payload a decode error, never a wrong image.
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

// peerLookupResponse carries the stage value when found: the profile's
// record for detect stages, the result's record for compact stages, the
// run's result for verifyrun stages.
type peerLookupResponse struct {
	Found   bool              `json:"found"`
	Profile []byte            `json:"profile,omitempty"`
	Record  []byte            `json:"record,omitempty"`
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

// peerInstallOffer tells a co-owner of a batch's detect keys that From
// generated the install with fingerprint InstallFP and holds it resident.
// Framework and tail-libs are the install's spec key: the owner registers
// the pulled install under it, and regenerates from it when the pull fails
// (installs are deterministic functions of their config).
type peerInstallOffer struct {
	InstallFP string `json:"install_fp"`
	From      string `json:"from"`
	Framework string `json:"framework"`
	TailLibs  int    `json:"tail_libs"`
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
	mux.HandleFunc("POST /v1/peer/install-offer", s.peerAuth(s.handlePeerInstallOffer))
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
// no install-transfer or object-transfer endpoints to strangers. When the
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
		resp.Profile, resp.Found = s.Registry.record(ProfileKey{Install: fp, Workload: wid})
	case negativa.StageCompact:
		// The disk tier answers with the stored bytes as they are: the
		// requester's decode is the check. A result with nothing to
		// encode, or a store miss, leaves Record nil: found=false.
		if ld, ok := s.Cache.Get(key.Hash); ok {
			resp.Record, _ = negativa.EncodeRecord(ld)
		} else if s.store != nil {
			resp.Record, _ = s.store.Get(kindRecord, key.Hash)
		}
		resp.Found = resp.Record != nil
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
// about it (compute the stage itself).
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

// handlePeerInstallOffer takes an offered install: resolved down
// Service.install's ladder — resident here, else pulled from the offering
// node, else regenerated from the spec key — and kept resident under that
// key, so this node's own batch of the same spec neither generates nor
// pulls it. A pulled copy is kept only when it fingerprints to install_fp
// (fetchInstall); an install resolved any other way that does not is
// version skew, answered 409. The handler takes no pool slot: its one
// outgoing call is the pull, which takes none on the node serving it.
func (s *Service) handlePeerInstallOffer(w http.ResponseWriter, r *http.Request) {
	var req peerInstallOffer
	if !decodePeerBody(w, r, maxRequestBytes, &req) {
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
	s.Counters.Add("peer.served_offers", 1)
	in, err := s.install(fw, req.TailLibs, req.From, req.InstallFP)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if got := negativa.InstallFingerprint(in); got != req.InstallFP {
		httpError(w, http.StatusConflict, fmt.Errorf("install fingerprint mismatch: have %.12s…, offered %.12s…", got, req.InstallFP))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"resident": true})
}

// handlePeerInstall serves a resident install in its transfer form
// (mlframework.ReadWire) to an owner pulling an offered install. It takes
// no slot, so a node whose every slot is held still answers. An install
// not resident here (never resolved, or evicted) is 404, and the owner
// generates it instead.
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
// set. A pushed profile is an object like any other: the registry reads it
// through when a batch needs it, and counts it against its on-disk bound.
func (s *Service) handlePeerObjectPut(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no data dir configured"))
		return
	}
	kind, key := r.PathValue("kind"), r.PathValue("key")
	switch kind {
	case kindLib, kindRecord, kindProfile, kindVerify:
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
		s.Registry.noteStored(key)
	}
	s.Counters.Add("peer.objects_received", 1)
	writeJSON(w, http.StatusOK, map[string]int64{"bytes": n})
}

// ---- Requester side: the install offer ----

// offerInstall offers the install a spec batch ran against to the remote
// owners of the batch's detect keys — the nodes its profiles were written
// back to — so they hold it resident when the same request reaches them.
// Only a node that generated the install offers it, and each owner once
// per resident install. The offers go out behind the batch on a replWG
// goroutine (WaitReplication and Close cover them); a refused or failed
// offer is counted, and costs the owner a generation later, never the
// batch.
func (s *Service) offerInstall(framework string, tailLibs int, res *BatchResult) {
	c := s.cluster
	if c == nil {
		return
	}
	self := c.Self()
	var to []string
	s.mu.Lock()
	if slot := s.installs[specKey(framework, tailLibs)]; slot != nil && slot.generated && slot.fp == res.InstallFP {
		for _, o := range res.Workloads {
			for _, id := range c.Owners(negativa.DetectKey(res.InstallFP, o.Identity).String()) {
				if id != self && !slices.Contains(slot.offered, id) {
					slot.offered = append(slot.offered, id)
					to = append(to, id)
				}
			}
		}
	}
	s.mu.Unlock()
	if len(to) == 0 {
		return
	}
	offer := peerInstallOffer{InstallFP: res.InstallFP, From: self, Framework: framework, TailLibs: tailLibs}
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		for _, id := range to {
			var resp struct{}
			if err := c.PostJSON(id, "/v1/peer/install-offer", offer, &resp); err != nil {
				s.Counters.Add("peer.offer_errors", 1)
				continue
			}
			s.Counters.Add("peer.offers", 1)
		}
	}()
}
