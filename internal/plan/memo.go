package plan

// Memo is the per-stage memoization surface the scheduler consults with
// each node's resolved content key. hint is the node's reconstruction hint
// (Node.WithHint) — tiered implementations use it to rebuild a value from
// a persisted form (e.g. decoding a stored range set against the live
// library). slot is the calling node's slot: a tier that waits on the
// network or on another node's flight releases it for the wait and
// re-acquires it before returning. Both calls reach the Executor the
// graph runs under, and while the slot is released another runner takes
// the graph's ready nodes. It is a parameter, not memo state, because one
// memo may be consulted from graphs running on different pools. Plain
// memory memos ignore both.
//
// GetOrCompute returns the memoized value and the tier that served it, or
// computes, stores, and returns it with SourceComputed. Implementations
// must be safe for concurrent use and should collapse concurrent computes
// of the same key into one. A nil Memo computes every node.
type Memo interface {
	GetOrCompute(slot Executor, key Key, hint any, compute func() (any, error)) (v any, src Source, err error)
}
