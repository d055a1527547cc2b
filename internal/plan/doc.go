// Package plan is a small deterministic stage-graph scheduler for the
// analysis pipeline: each stage of detect→compact→verify (location runs
// inside a library's compact stage) becomes a node with an explicit
// content-derived cache key, and an execution runs the nodes in dependency
// order over a bounded worker pool with per-stage memoization.
//
// Nodes declare their dependencies at graph-build time but resolve their
// cache keys late — a node's key function runs after its dependencies have
// completed, so a stage whose key depends on an upstream value (a compact
// stage keyed by the used-symbol sets a detection union produces) still
// gets a true content address. A resolved key is looked up in the Memo
// before the node's work function runs; a hit returns the memoized value
// and the work function never executes.
//
// Determinism: a graph's outputs are a pure function of its inputs — node
// values are content-keyed and node work functions are required to be
// deterministic. The schedule itself is concurrent (every node whose
// dependencies are done may run, bounded by the pool), so wall-clock
// interleaving varies run to run, but values, keys, hit/miss outcomes
// against a fixed memo state, and error selection (first error in node
// insertion order) do not.
//
// Dispatch: there is no scheduler beyond the executor. Execute starts one
// goroutine per node; a node whose dependencies are done acquires a slot
// of the caller's Executor directly, and that same Executor is what a memo
// tier releases around a network or flight wait. A *Pool grants slots in
// arrival order. Nothing ranks ready nodes: every graph the repository
// builds is levelled (each level depends on the whole level before it), so
// the nodes ready together share a stage and a ranking by stage cost never
// had two different values to compare (0 of 433 414 grants when counted).
// If a graph gains ready sets that mix cheap and expensive stages, count
// how often an ordering would have changed a grant before adding one back.
//
// Concurrent graphs on one pool: each node queues on the pool itself, so
// the pool's FIFO serves a batch's whole ready set in the order it arrived,
// ahead of a batch whose nodes became ready later. (The per-batch broker
// this replaced took pool slots one at a time, which interleaved concurrent
// batches roughly node for node.) Fairness between tenants is the
// gateway's lanes and dispatch slots, not the plan's.
package plan
