package dserve

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"negativaml/internal/cluster"
	"negativaml/internal/mlframework"
	"negativaml/internal/negativa"
)

// The peer wire protocol. Every route lives under /v1/peer/ and is spoken
// only between dserve nodes of one cluster:
//
//	POST /v1/peer/lookup-batch           read-through: return already-
//	                                     memoized stage values by content key,
//	                                     up to maxBatchLookupKeys per request
//	PUT  /v1/peer/install/{fingerprint}  a peer generated an install whose
//	                                     detect keys this node co-owns:
//	                                     keep it resident; asks first, so
//	                                     a holder reads none of it
//	PUT  /v1/peer/objects                push castore objects: a multi-
//	                                     object body, each object in its
//	                                     integrity frame; answers per object
//	POST /v1/peer/stat                   which of these objects do you hold
//
// The surface is node-to-node only: routes answer 404 unless a cluster is
// attached, and a cluster configured with a shared secret (see
// cluster.Options.Secret) additionally requires it on every request.
//
// No route runs analysis. Every stage is read-through only: a miss ships
// no payload, and the requester — which holds the install and the library
// images — computes the stage itself and writes the value's record back to
// the key's owners (repair.go). The install itself follows its profiles: a
// node that generated it pushes it, behind the batch, to the owners the
// profiles were written to. Every artifact crosses the same way: pushed by
// the node that holds it, never pulled.
//
// lookup-batch moves one form per stage: a found key answers `record`, the
// bytes the node's disk tier keeps for it (a value held only in memory
// encodes to the same bytes). The requester decodes it with the disk tier's
// own decode, under the key it asked for, and writes the received bytes
// behind verbatim. The memoStages table (memo.go) holds each stage's rules;
// its three kinds are the only ones the objects route stores.
//
// A profile record names the (fingerprint, identity) it belongs to, a
// compact record is bound to its library's digest, a verify record carries
// its stage hash: a record that does not decode under the key asked for —
// corrupt, or filed under another key — is a fallback to local compute,
// never someone else's value.
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

// peerLookupResponse carries the stage value when found: the record its
// disk tier keeps (see memoStages).
type peerLookupResponse struct {
	Found  bool   `json:"found"`
	Record []byte `json:"record,omitempty"`
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

// installPath is node from's push route of the install with fingerprint
// fp. framework and tail_libs are the install's spec key: the owner keeps
// the pushed install under it, and regenerates from it when the push does
// not check out (installs are deterministic functions of their config).
func installPath(fp, from, framework string, tailLibs int) string {
	return "/v1/peer/install/" + fp + "?" + url.Values{
		"from":      {from},
		"framework": {framework},
		"tail_libs": {strconv.Itoa(tailLibs)},
	}.Encode()
}

// peerBodyLimit bounds one push body (PUT /v1/peer/objects,
// /v1/peer/install/...): an install streams whole library images, so the
// bound is far above the client-facing maxRequestBytes. The JSON
// routes carry no payloads and decode under limits sized from their key
// bounds (peerLookupBatchLimit, peerStatLimit).
const peerBodyLimit = 256 << 20

// registerPeerRoutes mounts the node-to-node API. Every route is guarded
// by peerAuth: a node with no cluster attached refuses peer traffic
// outright, and a cluster configured with a shared secret refuses
// requests that do not present it.
func registerPeerRoutes(mux *http.ServeMux, s *Service) {
	mux.HandleFunc("POST /v1/peer/lookup-batch", s.peerAuth(s.handlePeerLookupBatch))
	mux.HandleFunc("PUT /v1/peer/install/{fingerprint}", s.peerAuth(s.handlePeerInstallPush))
	mux.HandleFunc("PUT /v1/peer/objects", s.peerAuth(s.handlePeerObjects))
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
// tiers (memory, then castore), answering the record its disk tier keeps. A
// clean miss, an unknown stage or a malformed hash (held under no key) is
// found=false.
func (s *Service) lookupStage(key peerLookupRequest) peerLookupResponse {
	st := memoStageOf(key.Stage)
	if st == nil {
		return peerLookupResponse{}
	}
	rec, found := s.stages.record(st, key.Hash)
	if !found {
		return peerLookupResponse{}
	}
	s.Counters.Add("peer.served_hits", 1)
	return peerLookupResponse{Found: true, Record: rec}
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
		resp.Results[i] = s.lookupStage(key)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerInstallPush takes an install a peer generated and pushes to the
// owners of its batch's detect keys, and keeps it resident under its spec
// key, so this node's own batch of the same spec neither generates nor
// receives it. The spec key is validated first. When this node's slot for
// it is already resolved or resolving, the handler answers without reading
// any of the body: the pusher asked first (Expect: 100-continue), so none
// of it crosses. Otherwise the body resolves the slot (Service.install),
// and it is kept only when it parses, is of the framework and
// fingerprints to {fingerprint}; anything else falls back to generation.
// An install resolved any way that does not fingerprint to {fingerprint}
// is version skew, answered 409. The handler takes no pool slot.
func (s *Service) handlePeerInstallPush(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	fw, err := ResolveFramework(q.Get("framework"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	tailLibs, err := strconv.Atoi(q.Get("tail_libs"))
	if err != nil || tailLibs < 0 || tailLibs > MaxTailLibs {
		httpError(w, http.StatusBadRequest, fmt.Errorf("tail_libs %q out of range", q.Get("tail_libs")))
		return
	}
	fp := r.PathValue("fingerprint")
	s.Counters.Add("peer.served_offers", 1)
	in, err := s.install(fw, tailLibs, func() *mlframework.Install {
		in, err := mlframework.ReadWire(r.Body, peerBodyLimit)
		if err != nil || in.Framework != fw || negativa.InstallFingerprint(in) != fp {
			return nil
		}
		s.Counters.Add("installs.fetched", 1)
		s.Counters.Add("peer.objects_fetched", int64(len(in.LibNames)))
		return in
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	if got := negativa.InstallFingerprint(in); got != fp {
		httpError(w, http.StatusConflict, fmt.Errorf("install fingerprint mismatch: have %.12s…, pushed %.12s…", got, fp))
		return
	}
	s.heartbeat(q.Get("from"))
	writeJSON(w, http.StatusOK, map[string]bool{"resident": true})
}

// heartbeat sends peer id the exchange the ring's heartbeat plane runs
// anyway. An owner that took a pushed install may next serve the same
// request, which reads through the pusher's tiers: this leaves it a
// connection to the pusher, so a ring whose heartbeat has not run yet does
// not dial inside that request. A failure is health accounting only.
func (s *Service) heartbeat(id string) {
	c := s.Cluster()
	if id == c.Self() || !slices.Contains(c.Nodes(), id) {
		return
	}
	var resp cluster.HeartbeatResponse
	_ = c.PostJSON(id, cluster.PingPath, cluster.HeartbeatRequest{From: c.Self(), Nodes: c.Membership()}, &resp)
}

// peerStatRequest asks which of a batch of objects the peer holds — the
// repair plane's probe. Batched so one round trip covers a whole repair
// round's candidate set (or a chunk of it).
type peerStatRequest struct {
	Objects []storeRef `json:"objects"`
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

// peerObjectsResponse answers a push per object, in body order: whether
// the object is stored (already present counts) or refused.
type peerObjectsResponse struct {
	Stored []bool `json:"stored"`
}

// countTrue counts the objects an answer reports stored.
func countTrue(stored []bool) int {
	n := 0
	for _, ok := range stored {
		if ok {
			n++
		}
	}
	return n
}

// handlePeerObjects receives a multi-object push — write-back, repair and
// handoff all deliver here. Each entry imports on its own
// (castore.Store.ImportEntries): a corrupt entry, or one of a kind other
// than the memoized stages' records, is refused and the next still lands,
// and a body cut short keeps the entries that arrived whole.
func (s *Service) handlePeerObjects(w http.ResponseWriter, r *http.Request) {
	st := s.Store()
	if st == nil {
		httpError(w, http.StatusNotFound, errors.New("no data dir configured"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, peerBodyLimit)
	stored, err := st.ImportEntries(r.Body, func(kind string) bool {
		return kind == kindRecord || kind == kindProfile || kind == kindVerify
	})
	if n := int64(countTrue(stored)); n > 0 {
		s.Counters.Add("peer.objects_received", n)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, peerObjectsResponse{Stored: stored})
}

// ---- Requester side: the install push ----

// offerInstall pushes the install a spec batch ran against to the remote
// owners of the batch's detect keys — the nodes its profiles were written
// back to — so they hold it resident when the same request reaches them.
// Only a node that generated the install pushes it, and to each owner once
// per resident install. The pushes go out behind the batch on a replWG
// goroutine (WaitReplication and Close cover them); a refused or failed
// push is counted, and costs the owner a generation later, never the
// batch.
func (s *Service) offerInstall(framework string, tailLibs int, res *BatchResult) {
	c := s.cluster
	if c == nil {
		return
	}
	self := c.Self()
	var in *mlframework.Install
	var to []string
	s.mu.Lock()
	if slot := s.installs[specKey(framework, tailLibs)]; slot != nil && slot.generated && slot.fp == res.InstallFP {
		in = slot.in
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
	path := installPath(res.InstallFP, self, framework, tailLibs)
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		for _, id := range to {
			if err := s.pushInstall(id, path, in); err != nil {
				s.Counters.Add("peer.offer_errors", 1)
				continue
			}
			s.Counters.Add("peer.offers", 1)
		}
	}()
}

// pushInstall streams in's transfer form (Install.WriteWire) to peer at
// path. The push is of unknown length, so it asks first: an owner that
// already holds the install answers before any of it crosses.
func (s *Service) pushInstall(peer, path string, in *mlframework.Install) error {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(in.WriteWire(pw)) }()
	err := s.cluster.PutStream(peer, path, pr, -1, nil)
	pr.CloseWithError(err)
	return err
}
