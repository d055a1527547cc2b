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
package plan
