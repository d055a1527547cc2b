// Package dserve is the concurrent batch-debloat service: it scales the
// single-workload detect→locate→compact→verify pipeline of
// internal/negativa to the fleet setting, where one framework install must
// be debloated against many workloads at once and identical work must never
// be repeated.
//
// # Architecture
//
// Every batch executes as a stage graph (internal/plan): each pipeline
// phase is a node with an explicit content-derived cache key, scheduled in
// dependency order over one service-wide bounded worker pool and memoized
// per stage. For a batch of M workloads over an install of N libraries the
// node DAG is
//
//	detect(w1) … detect(wM)
//	      \   |   /
//	       [union]──────────────── compact(lib1) … compact(libN)
//	                                      \              /
//	                                 [clone chunk] … [clone chunk]
//	                                      \              /
//	                                       [clone install]
//	                                      /              \
//	                            verifyrun(w1)  …  verifyrun(wM)
//
// with keys
//
//	detect    (install fingerprint, workload identity)   identity embeds the step cap
//	compact   library digest + union used-symbol sets + target archs;
//	          location is computed inside it on a miss, never on a hit
//	verifyref (install fingerprint, identity at the verification step cap)
//	verifyrun unmemoized by design — see below
//
// A library contributes exactly one node (negativa.CompactNode, which the
// single-workload planner schedules too): its index was built by
// InstallFingerprint before the graph existed, and symbol-to-range
// location is the first half of the node's work function, so no node is
// scheduled that cannot miss. Compact keys resolve late, after the union
// node has produced the merged used-symbol sets; the scheduler then
// consults the stage memo before running the node, so a key already
// computed by any prior batch — or any prior boot — absorbs the work.
//
// The stage memo (StageMemo) routes the two memoized stages to their
// stores, each tiered memory → disk → owning cluster peer:
//
//   - detect → the profile Registry: (install fingerprint, workload
//     identity) entries in memory, snapshotted to the content-addressed
//     store and replayed at boot. A workload profiled once is never
//     profiled again on the same install, across jobs and restarts.
//   - compact → the ResultCache: byte-bounded LRU memory over sparse
//     locate+compact results, spilling to and reloading from the
//     castore disk tier (decoded against the live library). Identical
//     libraries shared across installs — the dependency tail, which
//     dominates library counts — are analyzed once no matter how many
//     installs or jobs reference them.
//
// One flight table spans both: concurrent batches computing the same stage
// key run it once and share the value. A key of any other stage is not
// memoized.
//
// Verification nodes are deliberately unmemoized: a resubmitted batch
// re-validates what the service hands out. Only an explicit incremental
// re-submit carries verification outcomes over (next section).
//
// Per-stage hit/miss counters (stage.<name>.hits / .misses, with
// .disk_hits / .peer_hits tier attribution) and timings feed /v1/metrics'
// stages section.
//
// # Sharding
//
// With a cluster attached (AttachCluster, fed by negativa-served's
// -peers/-node-id flags), the stage content keys double as the sharding
// unit: a consistent-hash ring (internal/cluster) assigns each detect and
// compact key an R-way replica set of owning nodes (default R=2), and the
// stage memo gains a third tier. Any node accepts any batch; the stages
// its local tiers miss are read through their remote owners in measured-
// latency order, batched per replica set (POST /v1/peer/lookup-batch, the
// only remote read, hedged). A ring runs one protocol: a replica set that
// cannot answer the route is a failed peer tier, and its keys resolve as
// misses. On a miss, a detect stage that arrived with its workload spec
// executes on the primary shard (POST /v1/peer/detect — the request is the
// small spec, and the owner memoizes what it executed, so the whole
// cluster runs each detection once); a compact stage computes on the
// requesting node, which already holds the library image, and only its
// O(ranges) result travels.
// Peer-served values are written into the local tiers — memory, and the
// castore when attached — so hot artifacts replicate toward demand; every
// locally computed value (compact result or detect profile) is pushed to
// all live remote owners of its key in the background (write-back
// replication, repair.go), and a periodic anti-entropy sweep
// (Config.RepairInterval / RepairNow) stat-probes the remote owners of
// every locally held artifact and streams what they are missing through
// the castore's checksummed frames (PUT /v1/peer/objects/{kind}/{key},
// POST /v1/peer/stat).
//
// Every peer failure degrades gracefully — transport errors shrink the
// ring around the dead node and the stage computes locally; correctness
// never depends on a peer. Membership is active where it matters:
// heartbeats gossip the member set and detect silent failures, explicit
// join/leave (POST /v1/peer/join|leave) makes planned changes immediate,
// and LeaveCluster hands a departing node's primary-owned objects to the
// ring's next owners first. /v1/metrics gains a peer section
// (hits/misses/fallbacks/remote_execs/replica_reads plus per-peer health)
// and per-peer latency timings, and the counters map carries the
// replication plane's peer.replica_* / repair.* series.
// docs/ARCHITECTURE.md draws the full picture.
//
// # Incremental re-submit
//
// POST /v1/jobs with "base": "<job-id>" extends a
// completed job's workload set instead of re-paying every stage. The
// request must be a superset of the base's members (identity-compared) on
// the same install, step cap, and verification mode. Then:
//
//   - Detection: every base member's profile is already registered, so
//     the batch performs zero detection runs for them (and for any added
//     member profiled before).
//   - Location/compaction: libraries whose union used-symbol sets are
//     unchanged by the added members resolve to their base stage keys and
//     absorb through the memo; only the union-delta recomputes.
//   - Verification: base members' outcomes carry over without a re-run —
//     the superset union retains everything the base union did, so base
//     members stay verified by construction; only fresh members re-run.
//
// The base job is pinned for the duration of the batch, so eviction
// cannot release the store objects its stage keys absorb through. The
// job report's "incremental" section records absorbed vs delta libraries
// and carried verifications.
//
// Concurrency contract: *elfx.Library and *mlframework.Install values are
// immutable after parsing/generation and shared read-only across
// goroutines; each workload run constructs its own cudasim.Driver. Memoized
// stage values (profiles, compacted results and their images) are
// immutable once stored and handed out shared — callers must not mutate
// them. Lifetime: nothing but the byte-accounted ResultCache and retained
// jobs may keep a library image reachable after its batch returns — no
// memo entry, closure or per-pointer table (installs the service generated
// itself stay in its MaxInstalls-bounded install cache) — so what a batch
// leaves pinned is what CacheBytes and MaxJobs bound
// (TestWarmDiskBatchDoesNotPinLibraries,
// TestIngestedInstallIsNotPinnedByTheService).
//
// # Durability
//
// With a castore.Store attached (Config.Store), the service is durable:
// the compact-stage memo gains its disk tier (memory miss → disk hit →
// recompute), every detection profile snapshots on Put and replays on
// boot, and each completed job spills a manifest referencing its library
// images, sparse range sets, and reports — all content-addressed. A
// restarted service restores its jobs lazily: status reads the manifest,
// and the first report or fetch-library request materializes the result
// from the store without re-running detection, location, or compaction.
// Jobs retain (refcount) their store objects until evicted from the
// bounded job table; an open fetch-library stream pins its job so eviction
// never releases images under an in-flight response.
//
// The HTTP front end (NewHandler, served by cmd/negativa-served) exposes
// job submission (incremental included), status, full reports,
// debloated-library download, and a metrics snapshot backed by
// internal/metrics counters and timings, plus a store-stats endpoint when
// a data dir is configured.
package dserve
