// Package dserve is the concurrent batch-debloat service: it scales the
// single-workload detect→locate→compact→verify pipeline of
// internal/negativa to the fleet setting, where one framework install must
// be debloated against many workloads at once and identical work must never
// be repeated.
//
// # Architecture
//
// Every batch executes as a negativa.Batch — the repository's one stage
// graph (detect per member → union → compact per library → verify probe →
// clone → verifyrun per member; docs/ARCHITECTURE.md draws it), the same
// graph negativa.Debloat runs for one member. Each node carries an explicit
// content-derived key, runs in dependency order over one service-wide
// bounded worker pool and is memoized per stage. The service builds no
// graph of its own: it passes its tiers in — a batch memo over the stage
// memo, its verify probe, and when clustered the batch prefetch and the
// detect hints — and assembles the BatchResult from the run. Keys:
//
//	detect    (install fingerprint, workload identity)   identity embeds the step cap
//	compact   library digest + union used-symbol sets + target archs;
//	          location is computed inside it on a miss, never on a hit
//	verifyrun (install fingerprint, workload identity, step cap, digest of
//	          the debloated set as handed out) — see Verification below
//
// Compact keys resolve late, after the union node has produced the merged
// used-symbol sets; the plan then consults the stage memo before running
// the node, so a key already computed by any prior batch — or any prior
// boot — absorbs the work.
//
// The stage memo (StageMemo) resolves the three memoized stages through
// up to three tiers — memory → disk → owning cluster peer — by the rules
// of one table (memoStages; StageMemo's doc lays it out: each stage's
// castore kind, object key and memory tier). castore's byte budget
// (castore.Options.MaxBytes, least recently used first) is the one disk
// bound, the same for every kind.
//
// Each entry also holds its payload codec (negativa.EncodeProfile,
// negativa.EncodeRecord, the run result's JSON), which knows no key. Every
// stage hash is a SHA-256 digest, and every record is that hash's 32 bytes
// then the payload: memoStage.seal writes it, and memoStage.open reads it
// only under the hash it was sealed with. The record is what the disk tier
// keeps, under the stage hash, and the one form the value crosses the wire
// in. One disk loader reads every stage (Has before Get, open under the
// key, delete on mismatch, plant in memory); a workload profiled once is
// never profiled again on the same install, and identical libraries
// shared across installs — the dependency tail, which dominates library
// counts — are analyzed once, across jobs and restarts. A boot reads no
// record.
//
// One flight table spans all three (StageMemo.GetOrCompute): concurrent
// batches computing the same stage key run it once and share the value. A
// key of any other stage is not memoized. Each batch runs over its own
// memo (batchMemo), which holds what the batch's look-ahead — the prefetch
// and the verify probe — found, with the tier it came from, and hands each
// value out once to the node that asks for its key; every other ask falls
// through to the stage memo. A value the look-ahead found is never lost to
// an eviction before its node runs, and never credited to another batch.
//
// # Verification
//
// A verify run is a pure function of (install, workload identity at the
// step cap, the debloated bytes), so it is memoized like any other stage —
// keyed by what the batch hands out, not by what it asked for. After the
// compact nodes, the verifyprobe glue node digests, per library in load
// order, (name, content digest, the exact zeroed ranges of the sparse
// image in the compact node's value) — negativa.DebloatedSetDigest —
// derives each fresh member's negativa.VerifyRunKey, reads the replica set
// through when
// clustered (only if every compact was itself a hit: a batch that computed
// part of the set is the first to hold it, so no replica has a record and
// the round trip is not made), and asks the memo once. Only byte-identical output can hit: a
// different union, one flipped range, or a wrong-but-well-formed range set
// restored from disk or served by a peer changes the digest, and the
// members run again on the bytes as they are
// (TestVerifyMemoReRunsOnDifferentBytes). The graph is static, so its node
// count is exact before it runs: the clone chunk nodes and the join are
// always scheduled, inside the pool, and do nothing — no pooled scratch, no
// materialize, no parse — when every fresh member is already answered; a
// batch with any miss builds exactly one clone. A record the probe found
// is kept in the batch's memo for its member's node, so an eviction between
// probe and lookup cannot ask for a clone that was never built; a memo that
// computes a key its probe reported found fails the batch.
//
// The memoized value is the run's *mlruntime.Result. Verified is still
// computed at assembly, by comparing its digest with the profile's
// reference digest: a deterministic mismatch memoizes as a mismatch, and a
// run that errors memoizes nothing. New records go to the local store and
// to the key's replica owners on a background goroutine — never inside the
// verify node — and are ordered against nothing: a lost record costs a
// re-run.
//
// What this gives up against re-running every time, precisely. Bytes
// enter a node's memory only through checked boundaries — ingest and
// install hashing (the fingerprint and every library's content digest),
// castore frame checksums, the seal, which binds every record to its stage
// hash, and the record decoder, which binds a result and its range set to
// its library's digest — and the key is computed from the in-memory
// objects the result then streams from. So the one fault an unconditional
// re-run could still catch and the key cannot is mutation of an immutable
// object (a library image, a sparse image's ranges) after its digest was
// taken — which the concurrency contract below already excludes. The peer
// tier trusts a replica's verify record exactly as it already trusts a
// replica's profile: under the content key it was asked for.
//
// Incremental re-submit's carried outcomes (below) stay a separate path:
// they answer for a *different* debloated set — the superset
// union's — by a monotonicity argument (the superset keeps every byte the
// base kept), which no content address can express. Fresh members of an
// incremental batch go through the memo like any others.
//
// Per-stage hit/miss counters (stage.<name>.hits / .misses, with
// .disk_hits / .peer_hits tier attribution) and timings feed /v1/metrics'
// stages section.
//
// # Sharding
//
// With a cluster attached (AttachCluster, fed by negativa-served's
// -peers/-node-id flags), the stage content keys double as the sharding
// unit: a consistent-hash ring (internal/cluster) assigns each detect,
// compact and verifyrun key an R-way replica set of owning nodes (default
// R=2), and the stage memo gains a third tier. Any node accepts any batch; the stages
// its local tiers miss are read through their remote owners, batched per
// replica set (POST /v1/peer/lookup-batch, the only remote read; its
// answer is castore's multi-object body, the found keys' records
// verbatim). One walk, cluster.HedgedCall, reads a set: in health order
// (healthy, suspect, down; by ID within a class), each owner at most once,
// the next owner at once after a failure and as a hedge after a fixed
// 2 ms without an answer. A ring runs one protocol: a replica set that
// cannot answer the route is a failed peer tier, and its keys resolve as
// misses. No stage executes remotely: every miss computes on the
// requesting node, where its inputs already are — a detect stage against
// the install, a compact stage against the library image (only its
// O(ranges) result travels), a verifyrun stage on the clone it built (only
// the record travels). A node that generated a spec install pushes it,
// behind the batch, to the remote owners of the batch's detect keys (PUT
// /v1/peer/install/{fingerprint}); each keeps the copy rather than
// regenerating it, so the same request on an owner finds its install
// resident. The push asks first (Expect: 100-continue), so an owner that
// already holds the install, or is resolving it, reads none of it.
// Peer-served values are written into the local tiers — memory, and the
// castore when attached — so hot artifacts replicate toward demand; every
// locally computed value (compact result, detect profile or verify record)
// is queued for all live remote owners of its key and sent when its batch
// ends, one request per owner (the write-behind, repair.go). A periodic
// anti-entropy sweep (Config.RepairInterval / RepairNow) stat-probes the
// remote owners of every locally held artifact (POST /v1/peer/stat) and
// sends what they are missing, a probed chunk per request. Both senders
// use one route, PUT /v1/peer/objects: a body of many objects, each in
// the castore's checksummed frame, imported and checked one by one.
//
// Every peer failure degrades gracefully — transport errors shrink the
// ring around the dead node and the stage computes locally; correctness
// never depends on a peer. Membership is active where it matters:
// heartbeats gossip the member set and detect silent failures, explicit
// join/leave (POST /v1/peer/join|leave) makes planned changes immediate,
// and LeaveCluster hands a departing node's primary-owned objects to the
// ring's next owners first. /v1/metrics gains a peer section
// (hits/misses/fallbacks/replica_reads plus per-peer health)
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
//   - Verification: base members' outcomes carry over without a re-run or
//     a key — the superset union retains everything the base union did, so
//     base members stay verified by construction; only fresh members
//     resolve a verifyrun key, and run when no record answers it.
//
// The base job is pinned for the duration of the batch, so eviction
// cannot release the store objects its stage keys absorb through. The
// job report's "incremental" section records absorbed vs delta libraries
// and carried verifications.
//
// Concurrency contract: *elfx.Library and *mlframework.Install values are
// immutable after parsing/generation and shared read-only across
// goroutines; each workload run constructs its own cudasim.Driver. Memoized
// stage values (profiles, compacted results and the libraries they
// reference) are immutable once stored and handed out shared — callers must not mutate
// them. Lifetime: nothing but the byte-accounted ResultCache and retained
// jobs may keep a library image reachable after its batch returns — no
// memo entry, closure or per-pointer table (installs the service generated
// itself stay in its install cache, bounded at maxInstalls) — so what a batch
// leaves pinned is what CacheBytes and MaxJobs bound
// (TestWarmDiskBatchDoesNotPinLibraries,
// TestIngestedInstallIsNotPinnedByTheService).
//
// # Durability
//
// With a castore.Store attached (Config.Store), the service is durable:
// the detect, compact and verifyrun memos gain their disk tier (memory
// miss → disk hit → recompute; a boot reads no profile or result). New
// profiles, results and verify records reach the store through one
// write-behind (Service.writeBehind), one record each, at most
// spillConcurrency writers at a time, beside the peer queues. No library
// image is stored: a record decodes against the live library its batch
// resolved. A completing job waits only for the write-behind of the
// records its manifest references, then pins them and publishes the
// manifest (request, outcome summary, each library's name and record key)
// after SyncDirs has flushed the store segments holding them. A Put is one
// entry appended to a segment, so a record a disk loader cannot open is
// deleted, pinned or not, and the recompute's write replaces it; the pins
// of the jobs holding it pass to the new record.
//
// A done job's durable form is that manifest and its pinned records. A
// restarted service restores its jobs lazily: status reads the manifest,
// and the first report or fetch-library request reruns the job's request
// (Service.restore) without its base and without verification. The rerun
// resolves the install as any batch does — a spec install resident or
// generated, an ingest tree re-read from its ingest_dir — and reads the
// records through the compact stage's disk loader, recomputing any that
// is lost or corrupt. It is accepted only when its install fingerprint and
// every library's name and record key are the manifest's; otherwise the
// call fails (jobs.restore_failed) and serves nothing. The manifest's
// outcome fields stay the job's report.
// Jobs retain (refcount) their store objects until evicted from the
// bounded job table; an open fetch-library stream pins its job so eviction
// never releases records under an in-flight response. A store written
// before the record (a "result" and a "sparse" object per result) is read
// as holding no results: its batches recompute, and its manifests, whose
// records do not exist, are dropped at boot with their IDs still reserved.
// A store written while library images were kept holds a "lib" object per
// library, which nothing reads, pins or pushes; its manifests restore from
// their records, and the images are left to castore's byte budget.
//
// The HTTP front end (NewHandler, served by cmd/negativa-served) exposes
// job submission (incremental included), status, full reports,
// debloated-library download, and a metrics snapshot backed by
// internal/metrics counters and timings, plus a store-stats endpoint when
// a data dir is configured.
package dserve
