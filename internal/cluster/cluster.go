package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"negativaml/internal/bufpool"
	"negativaml/internal/metrics"
)

// Options configure a Cluster.
type Options struct {
	// ReplicaSets is R, the number of distinct ring successors that own
	// each key (default 2). The first owner is the primary — the replica
	// read first — and every owner holds a copy of the key's artifacts (write-back from whichever node computed them), so one
	// node's death loses no cached work.
	ReplicaSets int
	// FailureThreshold is the number of consecutive transport failures
	// after which a peer is marked down and removed from the ring
	// (default 2). A peer with a shorter failure run is suspect: still on
	// the ring, but the heartbeat plane probes it preferentially.
	FailureThreshold int
	// Probation is the backoff between probes of a downed peer (default
	// 15s). Expiry makes the peer eligible for a background probe; only a
	// probe that succeeds readmits it to the ring.
	Probation time.Duration
	// HeartbeatInterval, when positive, starts the active failure-detection
	// plane: a background loop that pings every peer each interval,
	// piggybacking membership (so joins gossip through the cluster) and
	// driving the suspect → down → readmitted transitions without waiting
	// for request traffic. Zero disables the loop; health then updates only
	// from request outcomes and lookup-triggered probes.
	HeartbeatInterval time.Duration
	// Timeout bounds each peer request (default 10s).
	Timeout time.Duration
	// Counters, when non-nil, mirrors transport-level series:
	// peer.requests, peer.transport_errors, peer.marked_down,
	// peer.readmitted, peer.probes, peer.probe_failures,
	// peer.gossip_learned.
	Counters *metrics.CounterSet
	// Timings, when non-nil, records per-peer request latency under
	// peer.<node-id>.
	Timings *metrics.TimingSet
	// Secret, when non-empty, is the cluster's shared peer credential:
	// every outgoing peer request carries it in the PeerSecretHeader, and
	// the receiving node's /v1/peer/* handlers refuse requests without it.
	// All nodes of one cluster must configure the same value. Without a
	// secret the peer surface is unauthenticated and must be network-
	// isolated from client traffic.
	Secret string
}

// hedgeMaxPct caps hedges at this percentage of in-flight hedged reads:
// under fan-out, at most one read in four may carry a second outstanding
// request, so hedging cannot double cluster load exactly when the cluster
// is busiest. At least one hedge is always allowed.
const hedgeMaxPct = 25

// hedgeDelay is the head start a hedged read gives its first replica
// before racing the next: short enough to rescue a stalled read, long
// enough that a healthy same-rack round trip wins first and the hedge
// never fires.
const hedgeDelay = 2 * time.Millisecond

// expectContinueTimeout bounds a push that asks first (PutStream with
// length -1): past it the body goes out without the peer's 100 Continue.
const expectContinueTimeout = 5 * time.Second

// PeerSecretHeader carries the cluster's shared secret on node-to-node
// requests (see Options.Secret).
const PeerSecretHeader = "X-Peer-Secret"

// Membership-plane paths. The serving layer mounts handlers at these
// routes (wired to HandleHeartbeat, AddPeer, RemovePeer); the cluster's
// own probes, Join, and Leave post to them on peers.
const (
	// PingPath is the heartbeat/probe route: a HeartbeatRequest in, a
	// HeartbeatResponse out. Answering 2xx is what readmits a downed peer.
	PingPath = "/v1/peer/ping"
	// JoinPath announces a node (JoinRequest) to a peer, which adds it to
	// its membership and answers with its own (JoinResponse).
	JoinPath = "/v1/peer/join"
	// LeavePath retires a node (LeaveRequest): the receiver removes it and
	// tombstones the ID so gossip cannot resurrect it.
	LeavePath = "/v1/peer/leave"
)

// HeartbeatRequest is one piggybacked heartbeat: the sender identifies
// itself and shares its live-member view, so membership gossips along the
// ping plane.
type HeartbeatRequest struct {
	From string `json:"from"`
	URL  string `json:"url,omitempty"`
	// Nodes is the sender's live membership (id → base URL), self included.
	Nodes map[string]string `json:"nodes,omitempty"`
}

// HeartbeatResponse carries the receiver's live membership back.
type HeartbeatResponse struct {
	Nodes map[string]string `json:"nodes,omitempty"`
}

// JoinRequest announces a node to a peer.
type JoinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// JoinResponse is the receiver's live membership, so a joiner learns the
// whole cluster from any one member.
type JoinResponse struct {
	Nodes map[string]string `json:"nodes,omitempty"`
}

// LeaveRequest retires a node by ID.
type LeaveRequest struct {
	ID string `json:"id"`
}

// PeerError is an application-level error returned by a peer's HTTP API
// (status >= 400 with a JSON error body). It does not count against the
// peer's transport health — the peer is alive and answering.
type PeerError struct {
	Peer   string
	Status int
	Msg    string
}

// Error implements the error interface.
func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: peer %s: %d: %s", e.Peer, e.Status, e.Msg)
}

// PeerStatus is one peer's health snapshot.
type PeerStatus struct {
	ID   string `json:"id"`
	URL  string `json:"url"`
	Down bool   `json:"down"`
	// Suspect marks a peer inside a failure run that has not yet reached
	// the down threshold: still on the ring, probed preferentially.
	Suspect bool `json:"suspect"`
	// ConsecutiveFailures is the current unbroken failure run; Requests and
	// TransportErrors are lifetime totals.
	ConsecutiveFailures int   `json:"consecutive_failures"`
	Requests            int64 `json:"requests"`
	TransportErrors     int64 `json:"transport_errors"`
}

// Stats is a point-in-time view of cluster membership and peer health.
type Stats struct {
	Self string `json:"self"`
	// ReplicaSets is R — how many ring successors own each key.
	ReplicaSets int `json:"replica_sets"`
	// RingNodes are the nodes currently on the ring (self plus live peers).
	RingNodes []string     `json:"ring_nodes"`
	Peers     []PeerStatus `json:"peers"`
}

type peerState struct {
	id, url   string
	fails     int
	down      bool
	downUntil time.Time

	requests, transportErrs int64
}

// Cluster tracks the membership of a dserve peer group: a consistent-hash
// ring over the live nodes (self included), per-peer health, and the HTTP
// transport the serving plane's peer tier rides on.
//
// Each key has ReplicaSets owners, all of which hold the key's artifacts
// (the primary is the first one read). Health runs in three states:
// a peer inside a failure run shorter than FailureThreshold is suspect (on
// the ring, probed preferentially by the heartbeat plane); at the
// threshold it is down and the ring shrinks around it (its keys
// redistribute to the survivors). A downed peer is readmitted only after a
// background probe of PingPath succeeds — never synchronously at a lookup —
// so a dead peer cannot thrash the ring by being optimistically retried on
// every key.
// Membership is dynamic: Join/Leave announce explicit transitions, and
// heartbeats piggyback each side's live-member view so additions gossip
// through the cluster; an ID retired via Leave is tombstoned and gossip
// cannot resurrect it. Application-level errors (a peer answering
// 4xx/5xx) are not transport failures: the peer is alive, only the
// request was bad.
type Cluster struct {
	self    string
	selfURL string
	opt     Options

	client *http.Client

	stop      chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	peers map[string]*peerState
	ring  *Ring
	// probing tracks in-flight background probes (single-flight per peer).
	probing map[string]bool
	// tombstones are IDs retired via Leave/RemovePeer: gossip and
	// heartbeats cannot re-add them; only an explicit join clears one.
	tombstones map[string]struct{}
	// exRings caches rings with one node excluded (the post-leave
	// ownership view handoff routes by); invalidated on every rebuild.
	exRings map[string]*Ring

	// inflightReads / inflightHedges back the hedge budget: hedges are
	// admitted only while they stay under hedgeMaxPct of in-flight hedged
	// reads, so tail-chasing cannot double cluster load under fan-out.
	inflightReads  atomic.Int64
	inflightHedges atomic.Int64
}

// New builds a cluster for node `self` over the peer set (node ID → base
// URL). A peers entry for self is not a peer but does teach the node its
// own advertised URL (what Join announces and heartbeats piggyback), so
// every node of a symmetric deployment can share one -peers string. The
// ring initially contains self and every peer. With HeartbeatInterval set
// the active failure-detection loop starts immediately; stop it with
// Close.
func New(self string, peers map[string]string, opt Options) *Cluster {
	if opt.ReplicaSets < 1 {
		opt.ReplicaSets = 2
	}
	if opt.FailureThreshold < 1 {
		opt.FailureThreshold = 2
	}
	if opt.Probation <= 0 {
		opt.Probation = 15 * time.Second
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 10 * time.Second
	}
	c := &Cluster{
		self:       self,
		opt:        opt,
		peers:      map[string]*peerState{},
		probing:    map[string]bool{},
		tombstones: map[string]struct{}{},
		stop:       make(chan struct{}),
	}
	// Dedicated transport: the peer tier fans a batch's stages out
	// concurrently, and net/http's default 2 idle connections per host
	// would close and re-dial most of them between waves. Generous idle
	// pools turn the steady state into pure keep-alive reuse.
	c.client = &http.Client{
		Timeout: opt.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
			// A dserve peer answers a push that asks first at once, with
			// 100 Continue or a final status; the bound only matters for a
			// peer that never answers the question.
			ExpectContinueTimeout: expectContinueTimeout,
		},
	}
	for id, url := range peers {
		if id == "" {
			continue
		}
		if id == self {
			c.selfURL = strings.TrimRight(url, "/")
			continue
		}
		c.peers[id] = &peerState{id: id, url: strings.TrimRight(url, "/")}
	}
	c.rebuildRingLocked()
	if opt.HeartbeatInterval > 0 {
		go c.heartbeatLoop()
	}
	return c
}

// Close stops the heartbeat loop (if any). Idempotent; in-flight probes
// finish on their own.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
}

// ParsePeers parses a "-peers" flag value: comma-separated id=base-url
// pairs, e.g. "a=http://h1:8080,b=http://h2:8080".
func ParsePeers(s string) (map[string]string, error) {
	out := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: malformed peer %q (want id=base-url)", part)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		out[id] = url
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no peers in %q", s)
	}
	return out, nil
}

// Self returns this node's ID.
func (c *Cluster) Self() string { return c.self }

// Secret returns the cluster's shared peer credential ("" when the
// cluster runs unauthenticated). The serving plane's peer handlers use it
// to verify incoming node-to-node requests.
func (c *Cluster) Secret() string { return c.opt.Secret }

// rebuildRingLocked recomputes the ring from self plus every live peer.
// Callers hold c.mu.
func (c *Cluster) rebuildRingLocked() {
	nodes := []string{c.self}
	for id, p := range c.peers {
		if !p.down {
			nodes = append(nodes, id)
		}
	}
	c.ring = NewRing(nodes, DefaultReplicas)
	c.exRings = nil
}

// Owners returns the key's live replica set in ring order: up to
// ReplicaSets distinct nodes, the primary first. Downed peers whose
// probation has expired get a background probe kicked here (single-flight,
// never blocking the lookup) — the lazy complement of the heartbeat plane,
// so heartbeat-less deployments still converge.
func (c *Cluster) Owners(key string) []string {
	c.mu.Lock()
	c.kickProbesLocked(time.Now())
	ring := c.ring
	r := c.opt.ReplicaSets
	c.mu.Unlock()
	return ring.Owners(key, r)
}

// OwnersExcluding returns the key's owners on the ring as it will be once
// the named node has left — the ownership view a leaving node hands its
// keys off to. The excluded ring is cached until membership changes.
func (c *Cluster) OwnersExcluding(id, key string) []string {
	c.mu.Lock()
	ring := c.exRings[id]
	if ring == nil {
		nodes := make([]string, 0, c.ring.Len())
		for _, n := range c.ring.Nodes() {
			if n != id {
				nodes = append(nodes, n)
			}
		}
		ring = NewRing(nodes, DefaultReplicas)
		if c.exRings == nil {
			c.exRings = map[string]*Ring{}
		}
		c.exRings[id] = ring
	}
	r := c.opt.ReplicaSets
	c.mu.Unlock()
	return ring.Owners(key, r)
}

// sortByHealth orders peer IDs in place into the replica read order:
// healthy peers first, then suspects (mid failure run), then downed peers;
// within a class the caller's order stands. A suspect replica must never
// be the first read target while a healthy one exists, or a single stalled
// peer charges every read its full timeout before the fallback. IDs not in
// the peer table (self) sort as healthy.
func (c *Cluster) sortByHealth(ids []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	class := func(id string) int { // 0 healthy (or self), 1 suspect, 2 down
		switch p, ok := c.peers[id]; {
		case ok && p.down:
			return 2
		case ok && p.fails > 0:
			return 1
		}
		return 0
	}
	slices.SortStableFunc(ids, func(a, b string) int { return class(a) - class(b) })
}

// Nodes returns the ring's current members (self plus live peers).
func (c *Cluster) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Nodes()
}

// Membership snapshots the live member set (id → base URL), self included
// when its URL is known — what heartbeats piggyback and joins answer with.
// Downed peers are excluded: gossiping a dead address around the cluster
// would make every member probe it independently.
func (c *Cluster) Membership() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.membershipLocked()
}

func (c *Cluster) membershipLocked() map[string]string {
	out := make(map[string]string, len(c.peers)+1)
	if c.selfURL != "" {
		out[c.self] = c.selfURL
	}
	for id, p := range c.peers {
		if !p.down {
			out[id] = p.url
		}
	}
	return out
}

// AddPeer adds a node to the membership (or refreshes its URL), clearing
// any tombstone — an explicit join overrides a past leave — and readmits
// it if it was down: a join announcement is the node itself claiming
// liveness, the same evidence a successful probe provides.
func (c *Cluster) AddPeer(id, url string) {
	if id == "" || id == c.self {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.tombstones, id)
	if p, ok := c.peers[id]; ok {
		if url != "" {
			p.url = strings.TrimRight(url, "/")
		}
		if p.down {
			p.down = false
			p.fails = 0
			c.count("peer.readmitted", 1)
		}
		c.rebuildRingLocked()
		return
	}
	c.peers[id] = &peerState{id: id, url: strings.TrimRight(url, "/")}
	c.rebuildRingLocked()
}

// RemovePeer drops a node from the membership and tombstones its ID so
// gossip cannot re-add it. Only an explicit join clears the tombstone.
func (c *Cluster) RemovePeer(id string) {
	if id == "" || id == c.self {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tombstones[id] = struct{}{}
	if _, ok := c.peers[id]; !ok {
		return
	}
	delete(c.peers, id)
	c.rebuildRingLocked()
}

// learnPeers merges a gossiped membership view: unknown, untombstoned IDs
// are added as live peers. Known peers are left alone — their health is
// this node's own observation, not the gossiper's.
func (c *Cluster) learnPeers(nodes map[string]string) {
	if len(nodes) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	added := false
	for id, url := range nodes {
		if id == "" || id == c.self || url == "" {
			continue
		}
		if _, dead := c.tombstones[id]; dead {
			continue
		}
		if _, known := c.peers[id]; known {
			continue
		}
		c.peers[id] = &peerState{id: id, url: strings.TrimRight(url, "/")}
		c.count("peer.gossip_learned", 1)
		added = true
	}
	if added {
		c.rebuildRingLocked()
	}
}

// HandleHeartbeat processes one inbound heartbeat: the sender's membership
// view is merged (gossip), its URL refreshed, and — if this node had
// marked the sender down — an immediate background probe is kicked, since
// inbound traffic is strong evidence the peer is back but only our own
// successful probe proves the return path works. The response carries this
// node's live membership.
func (c *Cluster) HandleHeartbeat(req HeartbeatRequest) HeartbeatResponse {
	c.learnPeers(req.Nodes)
	c.mu.Lock()
	if p, ok := c.peers[req.From]; ok {
		if req.URL != "" {
			p.url = strings.TrimRight(req.URL, "/")
		}
		if p.down && !c.probing[req.From] {
			p.downUntil = time.Now()
			c.probing[req.From] = true
			go c.probeAndSettle(req.From)
		}
	} else if req.From != "" && req.From != c.self && req.URL != "" {
		if _, dead := c.tombstones[req.From]; !dead {
			c.peers[req.From] = &peerState{id: req.From, url: strings.TrimRight(req.URL, "/")}
			c.rebuildRingLocked()
			c.count("peer.gossip_learned", 1)
		}
	}
	resp := HeartbeatResponse{Nodes: c.membershipLocked()}
	c.mu.Unlock()
	return resp
}

// Join announces this node to every known peer (JoinPath) and merges each
// answer's membership, so one reachable member is enough to learn the
// whole cluster. Returns how many peers acknowledged; failures are normal
// during a rolling start and the heartbeat plane finishes the job.
func (c *Cluster) Join() int {
	c.mu.Lock()
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	acked := 0
	for _, id := range ids {
		var jr JoinResponse
		if err := c.PostJSON(id, JoinPath, JoinRequest{ID: c.self, URL: c.selfURL}, &jr); err != nil {
			continue
		}
		acked++
		c.learnPeers(jr.Nodes)
	}
	return acked
}

// Leave announces this node's retirement to every live peer (LeavePath),
// best-effort. Callers that hold replicated state hand it off first (the
// serving plane's LeaveCluster does).
func (c *Cluster) Leave() {
	c.mu.Lock()
	ids := make([]string, 0, len(c.peers))
	for id, p := range c.peers {
		if !p.down {
			ids = append(ids, id)
		}
	}
	c.mu.Unlock()
	for _, id := range ids {
		c.PostJSON(id, LeavePath, LeaveRequest{ID: c.self}, nil)
	}
}

// ---- Failure detection: heartbeats, probes, readmission ----

// heartbeatLoop is the active failure-detection plane: each tick probes
// every peer not already being probed and not inside probation backoff,
// piggybacking membership both ways.
func (c *Cluster) heartbeatLoop() {
	t := time.NewTicker(c.opt.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			now := time.Now()
			var targets []string
			for id, p := range c.peers {
				if c.probing[id] || (p.down && now.Before(p.downUntil)) {
					continue
				}
				c.probing[id] = true
				targets = append(targets, id)
			}
			c.mu.Unlock()
			for _, id := range targets {
				go c.probeAndSettle(id)
			}
		}
	}
}

// kickProbesLocked launches a background probe for every downed peer whose
// probation has expired. Readmission only ever follows a successful probe —
// a lookup merely triggers the attempt, so a still-dead peer can never
// rejoin the ring and charge a stage another failure run (the flapping-
// peer fix). Callers hold c.mu.
func (c *Cluster) kickProbesLocked(now time.Time) {
	for id, p := range c.peers {
		if p.down && now.After(p.downUntil) && !c.probing[id] {
			c.probing[id] = true
			go c.probeAndSettle(id)
		}
	}
}

// probeAndSettle runs one background probe (the caller has claimed the
// peer's probing slot) and settles a downed peer's fate: success readmits
// it to the ring, failure extends its probation. Probes of live peers need
// no settling — the transport's observe already drove any state change.
func (c *Cluster) probeAndSettle(id string) {
	ok := c.probe(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.probing, id)
	p, exists := c.peers[id]
	if !exists || !p.down {
		return
	}
	if ok {
		p.down = false
		p.fails = 0
		c.rebuildRingLocked()
		c.count("peer.readmitted", 1)
	} else {
		p.downUntil = time.Now().Add(c.opt.Probation)
	}
}

// probe sends one heartbeat to the peer. Only a 2xx PingPath answer counts
// as success: a transport failure means the peer is unreachable, and an
// application error (a node up but refusing its peer surface) is not a
// peer worth routing stages to either.
func (c *Cluster) probe(id string) bool {
	c.count("peer.probes", 1)
	req := HeartbeatRequest{From: c.self, URL: c.selfURL, Nodes: c.Membership()}
	var resp HeartbeatResponse
	if err := c.PostJSON(id, PingPath, req, &resp); err != nil {
		c.count("peer.probe_failures", 1)
		return false
	}
	c.learnPeers(resp.Nodes)
	return true
}

// Stats snapshots membership and per-peer health for /v1/metrics.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Self: c.self, ReplicaSets: c.opt.ReplicaSets, RingNodes: c.ring.Nodes()}
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := c.peers[id]
		st.Peers = append(st.Peers, PeerStatus{
			ID: p.id, URL: p.url, Down: p.down,
			Suspect:             !p.down && p.fails > 0,
			ConsecutiveFailures: p.fails,
			Requests:            p.requests,
			TransportErrors:     p.transportErrs,
		})
	}
	return st
}

func (c *Cluster) count(name string, delta int64) {
	if c.opt.Counters != nil {
		c.opt.Counters.Add(name, delta)
	}
}

// peerURL resolves a peer's base URL.
func (c *Cluster) peerURL(id string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[id]
	if !ok {
		return "", fmt.Errorf("cluster: unknown peer %q", id)
	}
	return p.url, nil
}

// observe records one request's outcome against the peer's health (and its
// wall time in Options.Timings). A transport failure counts toward the
// consecutive-failure run; at the threshold the peer is marked down and
// the ring rebuilt without it.
func (c *Cluster) observe(id string, dur time.Duration, transportErr bool) {
	if c.opt.Timings != nil {
		c.opt.Timings.Observe("peer."+id, dur)
	}
	c.count("peer.requests", 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[id]
	if !ok {
		return
	}
	p.requests++
	if !transportErr {
		p.fails = 0
		return
	}
	p.transportErrs++
	p.fails++
	c.count("peer.transport_errors", 1)
	if p.fails >= c.opt.FailureThreshold && !p.down {
		p.down = true
		p.downUntil = time.Now().Add(c.opt.Probation)
		c.rebuildRingLocked()
		c.count("peer.marked_down", 1)
	}
}

// PostJSON POSTs a JSON body to a peer's path and decodes the JSON
// response into out (which may be nil). A non-2xx status decodes the
// peer's {"error": ...} body into a *PeerError; transport failures count
// against the peer's health, application errors do not.
func (c *Cluster) PostJSON(peer, path string, in, out any) error {
	return c.Post(context.Background(), peer, path, in, decodeJSON(out))
}

// Post POSTs a JSON body to a peer's path under ctx and hands a 2xx
// answer's body to read (nil drains it). A request whose context was
// cancelled — the hedged-read path's cancellation channel — does not
// touch the peer's health: losing a hedge race says nothing about the
// peer, and charging it a transport failure would let hedging itself mark
// healthy peers down.
//
// The request body is encoded once into a pooled buffer: Content-Length is
// set from it (so the peer can preallocate), a transport-level retry
// replays the same bytes instead of re-marshalling, and the buffer returns
// to the pool when the exchange finishes — steady-state peer traffic
// produces no per-call encoding garbage.
func (c *Cluster) Post(ctx context.Context, peer, path string, in any, read func(io.Reader) error) error {
	buf := bufpool.GetBuffer()
	defer bufpool.PutBuffer(buf)
	if err := json.NewEncoder(buf).Encode(in); err != nil {
		return fmt.Errorf("cluster: encode %s request: %w", path, err)
	}
	body := buf.Bytes()
	return c.send(ctx, peer, http.MethodPost, path, "application/json", bytes.NewReader(body), int64(len(body)), read)
}

// PutStream PUTs a raw octet stream to a peer path — the replication
// and install push path — and decodes a 2xx JSON answer into out (or
// drains it when out is nil). length sets Content-Length when known
// (>= 0). A body of unknown size (-1) streams chunked and asks first
// (Expect: 100-continue): the peer may answer before reading any of it,
// and then none of it is sent. A non-2xx status is returned as
// *PeerError.
func (c *Cluster) PutStream(peer, path string, body io.Reader, length int64, out any) error {
	return c.send(context.Background(), peer, http.MethodPut, path, "application/octet-stream", body, length, decodeJSON(out))
}

// maxJSONAnswer bounds a JSON answer from a peer. Every JSON route
// answers a membership view or a flag per object of a bounded request,
// kilobytes at most; a body past the bound fails to decode.
const maxJSONAnswer = 1 << 20

// decodeJSON is the reader of a JSON answer: it decodes at most
// maxJSONAnswer bytes into out, or, when out is nil, drains the answer.
func decodeJSON(out any) func(io.Reader) error {
	if out == nil {
		return nil
	}
	return func(r io.Reader) error {
		return json.NewDecoder(io.LimitReader(r, maxJSONAnswer)).Decode(out)
	}
}

// send is the one peer exchange under Post and PutStream: it sends the
// request with the cluster's secret, hands a 2xx answer's body to read
// (or drains it when read is nil), and settles the peer's health once. A
// transport failure or a 2xx body that read refuses counts against the peer,
// unless ctx was cancelled; a non-2xx answer is a *PeerError and does
// not. A length of -1 asks first (Expect: 100-continue).
func (c *Cluster) send(ctx context.Context, peer, method, path, contentType string, body io.Reader, length int64, read func(io.Reader) error) error {
	url, err := c.peerURL(peer)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, method, url+path, body)
	if err != nil {
		return fmt.Errorf("cluster: build %s request: %w", path, err)
	}
	if length >= 0 {
		req.ContentLength = length
	} else {
		req.Header.Set("Expect", "100-continue")
	}
	req.Header.Set("Content-Type", contentType)
	if c.opt.Secret != "" {
		req.Header.Set(PeerSecretHeader, c.opt.Secret)
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	var perr *PeerError
	if err == nil {
		switch {
		case resp.StatusCode/100 != 2:
			perr = peerError(peer, resp)
		case read != nil:
			// A success body the reader refuses means the peer is
			// misbehaving at the protocol level; it counts like a
			// transport failure so a wedged peer eventually leaves the
			// ring.
			if rerr := read(resp.Body); rerr != nil {
				err = fmt.Errorf("read %s answer: %w", path, rerr)
			}
		default:
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		}
		resp.Body.Close()
	}
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("cluster: peer %s: %w", peer, ctx.Err())
	}
	c.observe(peer, time.Since(start), err != nil)
	if perr != nil {
		return perr
	}
	if err != nil {
		return fmt.Errorf("cluster: peer %s: %w", peer, err)
	}
	return nil
}

// peerError reads a non-2xx answer's {"error": ...} body into a
// *PeerError.
func peerError(peer string, resp *http.Response) *PeerError {
	perr := &PeerError{Peer: peer, Status: resp.StatusCode}
	var eb struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb) == nil {
		perr.Msg = eb.Error
	}
	return perr
}

// ---- Hedged replica reads ----

// hedgeAdmit reports whether a new hedge fits the budget: hedges may not
// exceed hedgeMaxPct of in-flight hedged reads (always admitting at least
// one). The caller must release the slot via inflightHedges.Add(-1) when
// the hedge completes.
func (c *Cluster) hedgeAdmit() bool {
	limit := c.inflightReads.Load() * hedgeMaxPct / 100
	if limit < 1 {
		limit = 1
	}
	for {
		cur := c.inflightHedges.Load()
		if cur >= limit {
			return false
		}
		if c.inflightHedges.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// HedgedCall is the one replica walk: it reads from peers, trying each
// at most once, until one answers — the tail-at-scale defense, so a
// stalled replica costs the hedge delay, not the transport timeout. It
// orders the set by health (sortByHealth) and starts the first replica.
// It starts the next one at once when an attempt fails, and as a hedge
// each hedgeDelay that passes with no answer while the hedge budget
// (hedgeAdmit) has room: a hedge the budget refuses is asked for again at
// the next tick, so a read waits out a busy budget, not a stalled replica.
// The first attempt to succeed wins, and the attempts' shared context
// then cancels every other; attempt must honor ctx (route reads through
// Post). Metrics: peer.hedge_fired / peer.hedge_won /
// peer.hedge_cancelled. It returns the winning value and peer, or
// ok=false when every replica failed.
func HedgedCall[T any](c *Cluster, peers []string, attempt func(ctx context.Context, peer string) (T, error)) (v T, peer string, ok bool) {
	if len(peers) == 0 {
		return v, "", false
	}
	peers = slices.Clone(peers)
	c.sortByHealth(peers)
	c.inflightReads.Add(1)
	defer c.inflightReads.Add(-1)

	type result struct {
		v      T
		err    error
		peer   string
		hedged bool
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan result, len(peers))
	next := 0
	launch := func(hedged bool) {
		p := peers[next]
		next++
		go func() {
			v, err := attempt(ctx, p)
			if hedged {
				// Release the budget slot here, not in the reader: a hedge
				// abandoned after another attempt wins is never read.
				c.inflightHedges.Add(-1)
			}
			results <- result{v, err, p, hedged}
		}()
	}
	timer := time.NewTimer(hedgeDelay)
	defer timer.Stop()
	launch(false)
	for outstanding := 1; outstanding > 0; {
		select {
		case <-timer.C:
			if next == len(peers) {
				continue // every replica is asked: nothing left to hedge with
			}
			if c.hedgeAdmit() {
				c.count("peer.hedge_fired", 1)
				launch(true)
				outstanding++
			}
			timer.Reset(hedgeDelay)
		case r := <-results:
			outstanding--
			if r.err == nil {
				if outstanding > 0 {
					c.count("peer.hedge_cancelled", 1)
				}
				if r.hedged {
					c.count("peer.hedge_won", 1)
				}
				return r.v, r.peer, true
			}
			if next < len(peers) {
				launch(false) // a failure is replaced at once, not hedged
				outstanding++
			}
		}
	}
	return v, "", false
}
