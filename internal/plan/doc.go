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
// Dispatch follows the TensorFlow executor: every node carries a count of
// its unfinished dependencies, a node whose count reaches zero joins a FIFO
// ready queue, and at most W runner goroutines per Execute — W is the
// pool's Workers, and the caller is one of them — pop the queue and run
// what they pop. A runner takes a slot of the pool for each node it runs,
// only while the node resolves its key and runs. Runners are reused across
// nodes, so a batch grows a few goroutine stacks once, not one per node (a
// compact node's key path outgrows a fresh stack). A node whose memo tier
// waits on the network or on another node's flight releases its slot
// through the runner's slot: the release reaches the pool, and if ready
// nodes are queued while fewer than W runners are unblocked another runner
// is woken or started, so a node waiting on a peer never starves a
// compute-ready one; a runner above W retires after its current node once
// the waiter is back. Nothing ranks ready nodes: every graph the
// repository builds is levelled (each level depends on the whole level
// before it), so the nodes ready together share a stage and a ranking by
// stage cost never had two different values to compare (0 of 433 414
// grants when counted). If a graph gains ready sets that mix cheap and
// expensive stages, count how often an ordering would have changed a grant
// before adding one back.
//
// Concurrent graphs on one pool: each graph's runners queue on the pool
// once per node, so concurrent batches interleave at node granularity, in
// the order their runners arrive, one slot request per runner. (Before the
// runners, every ready node of a batch queued on the pool at once, so the
// pool served a batch's whole ready set ahead of a batch whose nodes became
// ready later.)
// Fairness between tenants is the gateway's lanes and dispatch slots, not
// the plan's.
package plan
