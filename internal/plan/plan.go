package plan

import "time"

// Key is the content address of one stage computation: the stage name plus
// a canonical content-derived string (typically a hex digest, but any
// canonical form works — the detect stage uses its composite identity
// directly so memo tiers can recover the parts).
type Key struct {
	Stage string
	Hash  string
}

// Zero reports whether the key is empty — nodes resolving a zero key are
// executed unmemoized (cheap glue stages like profile unions or install
// clones that are not worth an address).
func (k Key) Zero() bool { return k == Key{} }

// String renders the key as stage/hash — the form ring sharding and logs
// use.
func (k Key) String() string { return k.Stage + "/" + k.Hash }

// Node is one vertex of a stage graph. Nodes are created through
// Graph.Node and immutable afterwards; Value, ResolvedKey, and Hit are
// valid once Execute has returned.
type Node struct {
	stage string
	id    int32 // position in the graph's insertion order
	deps  []*Node
	keyFn func(deps []any) (Key, error)
	runFn func(deps []any) (any, error)
	hint  any

	out any
	err error
	key Key
	hit bool
}

// Value returns the node's output after Execute.
func (n *Node) Value() any { return n.out }

// ResolvedKey returns the content key the node resolved during Execute
// (zero for unmemoized glue nodes or nodes that never ran).
func (n *Node) ResolvedKey() Key { return n.key }

// Hit reports whether the node's value came from the memo.
func (n *Node) Hit() bool { return n.hit }

// Graph is a stage DAG under construction. Build it single-goroutine, then
// Execute it; a Graph is single-use.
type Graph struct {
	nodes []*Node
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// Len returns the number of nodes added so far — the denominator a
// progress observer divides completed-stage counts by.
func (g *Graph) Len() int { return len(g.nodes) }

// Node adds a stage node. deps are nodes of this graph whose values feed
// this one (their outputs arrive in order as the deps slice of both functions).
// keyFn resolves the node's content key once dependencies are done; a nil
// keyFn (or a zero resolved key) marks the node unmemoized. runFn computes
// the value on a memo miss. Either function may also read a captured
// dependency *Node's ResolvedKey — dependency keys are resolved before
// dependents run.
func (g *Graph) Node(stage string, deps []*Node, keyFn func(deps []any) (Key, error), runFn func(deps []any) (any, error)) *Node {
	n := &Node{stage: stage, id: int32(len(g.nodes)), deps: deps, keyFn: keyFn, runFn: runFn}
	g.nodes = append(g.nodes, n)
	return n
}

// WithHint attaches an opaque reconstruction hint handed to the memo with
// the node's key — e.g. the live library a disk tier decodes a persisted
// range set against. Returns the node for chaining.
func (n *Node) WithHint(hint any) *Node {
	n.hint = hint
	return n
}

// StaticKey adapts a key known at graph-build time to a keyFn.
func StaticKey(k Key) func([]any) (Key, error) {
	return func([]any) (Key, error) { return k, nil }
}

// Executor bounds concurrent node execution. A node holds a slot only
// while resolving its key and running its work function, never while
// waiting on dependencies, so graph execution cannot deadlock the
// executor. *Pool implements it.
type Executor interface {
	Acquire()
	Release()
}

// Observer receives per-stage outcomes during execution — one call per
// successfully finished node, memoized or not, with the tier that produced
// its value (SourceComputed for unmemoized glue nodes and plain misses;
// src.Hit() tells a reuse from a compute). wall is the time spent
// resolving the key plus computing (hits resolve but do not compute).
// Implementations must be safe for concurrent use.
type Observer interface {
	StageSource(stage string, src Source, wall time.Duration)
}

// multiObserver fans one execution's outcomes out to several observers —
// the serving plane's global metrics observer plus a per-job progress
// observer, for example.
type multiObserver []Observer

func (m multiObserver) StageSource(stage string, src Source, wall time.Duration) {
	for _, o := range m {
		o.StageSource(stage, src, wall)
	}
}

// MultiObserver combines observers into one; nil members are skipped, and a
// single surviving member is returned unwrapped. Returns nil when none
// survive.
func MultiObserver(obs ...Observer) Observer {
	var m multiObserver
	for _, o := range obs {
		if o != nil {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}
