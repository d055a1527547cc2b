// Package cluster shards the batch-debloat serving plane across dserve
// peers with a consistent-hash ring keyed by stage content keys.
//
// # Why content keys shard well
//
// Every memoized stage of the analysis pipeline (detect, compact)
// already has a content-derived cache key (internal/negativa stage keys),
// and every stage value is immutable once computed. Hashing those keys
// onto a ring gives each stage a small, deterministic owner set, which
// makes the owners' memos the cluster-wide points of reuse: any node may
// accept a batch, and a stage value is memoized on its owning shards
// (every miss computes on the node that took the batch, which holds its
// inputs, and is written to the owners), so N nodes share one logical cache
// without coordination, invalidation, or consensus. Replication happens
// by demand and by write-back: a node that reads a stage value through an
// owner keeps a local copy (memory + castore), and a freshly computed
// value is pushed to the other owners of its key (internal/dserve's
// replication plane).
//
// # What this package provides
//
//   - Ring: an immutable consistent-hash ring (virtual nodes, 64-bit
//     SHA-256 positions). Membership changes build a new ring; lookups are
//     lock-free. Owners(key, n) returns the n distinct clockwise
//     successors of a key — its replica set, primary first.
//   - Cluster: live membership over a Ring — self plus a peer set that can
//     grow (join, gossip) and shrink (leave, failure) at runtime — with
//     per-peer health tracking and the HTTP transport the serving plane's
//     peer tier uses: one exchange (send) under Post, which sends a JSON
//     request and hands the answer's body to the caller's reader (stage
//     lookups read castore's multi-object body), PostJSON, Post with a
//     JSON reader (stat, the membership plane), and PutStream (castore
//     object and install pushes). A JSON answer is read under a bound
//     (maxJSONAnswer); a reader of any other answer states its own.
//   - HedgedCall: the one walk over a replica set. It reads the set in
//     health order (healthy, suspect, down; the caller's order within a
//     class), tries each replica at most once, moves to the next at once
//     when an attempt fails and as a hedge when a fixed 2 ms passes with no
//     answer, and cancels every other attempt when one succeeds. A hedge
//     budget (a quarter of the in-flight reads, at least one) bounds the
//     extra load; a refused hedge asks again every 2 ms.
//
// # Failure model
//
// Health is observed from two sources: the requests the serving plane was
// making anyway, and (when Options.HeartbeatInterval is set) a periodic
// heartbeat probe to every peer. A peer that fails FailureThreshold
// consecutive transport-level requests is marked down and the ring shrinks
// around it — its keys redistribute to the survivors, and stages whose
// owners are unreachable simply fall back to local compute (correctness
// never depends on a peer; the peer tier is an optimization layered over a
// node that is fully capable alone). A peer partway into a failure run is
// reported as suspect but stays on the ring. After a probation period the
// peer is probed in the background; only a successful probe readmits it —
// an ownership lookup never does — so a flapping peer cannot thrash the
// ring. Application-level errors (4xx/5xx with a JSON error body) do not
// count against health: the peer is alive, the request was just refused.
//
// # Membership plane
//
// Heartbeats piggyback the sender's live membership view and answer with
// the receiver's, so additions spread by gossip. Membership changes can
// also be explicit: Join announces this node to every configured peer
// (merging their views back), and Leave retires it. A removed or departed
// peer ID is tombstoned so stale gossip cannot resurrect it; only a fresh
// explicit AddPeer/join admits it again.
//
// The serving-plane integration — the /v1/peer/* routes, the replica-read
// stage memo (memory → castore → replica owners), write-back replication,
// anti-entropy repair, and the peer.*/repair.* metrics — lives in
// internal/dserve.
package cluster
