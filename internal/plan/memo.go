package plan

import "sync"

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
// of the same key into one (the contract MemMemo provides).
type Memo interface {
	GetOrCompute(slot Executor, key Key, hint any, compute func() (any, error)) (v any, src Source, err error)
}

// memoEntry is one MemMemo slot: the inflight channel gates concurrent
// computes of the same key (singleflight), and val holds the result once
// ready.
type memoEntry struct {
	ready chan struct{}
	val   any
	err   error
}

// MemMemo is an in-memory Memo bounded by entry count, with singleflight
// semantics: concurrent GetOrCompute calls for the same key run the
// compute exactly once and share its result. Failed computes are not
// cached — the next call retries. At the bound the memo wipes wholesale
// (entries are content-keyed derivations, so a wipe only costs
// recomputation, never correctness).
type MemMemo struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*memoEntry
}

// DefaultMemoEntries bounds NewMemMemo's retention.
const DefaultMemoEntries = 4096

// NewMemMemo returns an empty memo bounded to max entries (values < 1 take
// DefaultMemoEntries).
func NewMemMemo(max int) *MemMemo {
	if max < 1 {
		max = DefaultMemoEntries
	}
	return &MemMemo{max: max, entries: map[Key]*memoEntry{}}
}

// GetOrCompute implements Memo.
func (m *MemMemo) GetOrCompute(_ Executor, key Key, _ any, compute func() (any, error)) (any, Source, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.ready
		if e.err == nil {
			return e.val, SourceMemory, nil
		}
		// The flight we joined failed; fall through to our own attempt.
		return m.retry(key, compute)
	}
	e := m.claim(key)
	m.mu.Unlock()

	return m.fill(key, e, compute)
}

// claim inserts a fresh inflight entry for key, wiping at the bound.
// Callers hold m.mu.
func (m *MemMemo) claim(key Key) *memoEntry {
	if len(m.entries) >= m.max {
		m.entries = map[Key]*memoEntry{}
	}
	e := &memoEntry{ready: make(chan struct{})}
	m.entries[key] = e
	return e
}

// fill runs the compute for the claimed entry, publishes the result, and
// drops failed entries so later calls retry.
func (m *MemMemo) fill(key Key, e *memoEntry, compute func() (any, error)) (any, Source, error) {
	e.val, e.err = compute()
	close(e.ready)
	if e.err != nil {
		m.mu.Lock()
		// Only drop our own failed flight; a concurrent success under the
		// same key (after a wipe) must survive.
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		return nil, SourceComputed, e.err
	}
	return e.val, SourceComputed, nil
}

// retry re-enters the memo after joining a failed flight: by the time we
// get here the failed entry has been dropped, so this either joins a newer
// healthy flight or claims its own.
func (m *MemMemo) retry(key Key, compute func() (any, error)) (any, Source, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		<-e.ready
		if e.err == nil {
			return e.val, SourceMemory, nil
		}
		// Two consecutive failures: report without further retries —
		// deterministic computes will keep failing.
		return nil, SourceComputed, e.err
	}
	e := m.claim(key)
	m.mu.Unlock()
	return m.fill(key, e, compute)
}

// Len returns the number of memoized entries (inflight included).
func (m *MemMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
