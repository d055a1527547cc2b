package plan

import (
	"fmt"
	"sync"
	"time"
)

// Execute runs the graph the way the TensorFlow executor does: every node
// carries a count of its unfinished dependencies, the nodes whose count is
// zero wait on a FIFO ready queue, and at most W runner goroutines pop the
// queue and run what they pop, where W is ex's Workers (*Pool's width; the
// node count for an executor that does not report one). The caller is one
// of the runners. A node holds a slot of ex while it resolves its key and
// runs, so ready nodes of concurrent graphs on one pool take its slots node
// by node in arrival order. memo, when non-nil, is consulted with each
// node's resolved key and handed the runner's slot: its Release and Acquire
// reach ex, and while a node has yielded its slot around a wait another
// runner takes the graph's ready nodes; obs, when non-nil, observes every
// finished node's outcome. Execute blocks until every node has finished and
// returns the first error in node insertion order (nodes downstream of a
// failed node do not run; they inherit the failure).
func (g *Graph) Execute(ex Executor, memo Memo, obs Observer) error {
	if len(g.nodes) == 0 {
		return nil
	}
	e := newExecution(g, ex, memo, obs)
	e.live = 1
	e.run()
	<-e.done
	for _, n := range g.nodes {
		if n.err != nil {
			return n.err
		}
	}
	return nil
}

// ExecuteWith is Execute; it and the empty ExecOptions stay only because bench/probes.go compiles against them.
type ExecOptions struct{}

func (g *Graph) ExecuteWith(ex Executor, memo Memo, obs Observer, _ ExecOptions) error {
	return g.Execute(ex, memo, obs)
}

// execution is one Execute call: the ready queue, each node's count of
// unfinished dependencies and list of dependents, and the runner counts the
// handoff works from. mu guards all of it; a node's results are written by
// the runner that ran it before that runner reports it finished under mu,
// and read by dependents popped under mu afterwards.
type execution struct {
	nodes []*Node
	ex    Executor
	memo  Memo
	obs   Observer
	width int

	mu   sync.Mutex
	wake sync.Cond // parked runners wait here for queued nodes
	// pending[i] counts node i's unfinished dependencies; node i's
	// dependents are dependents[first[i]:first[i+1]], in insertion order.
	pending    []int32
	first      []int32
	dependents []int32
	queue      []int32 // every node is appended once; queue[head:] is ready
	head       int
	left       int // nodes not finished
	live       int // runners, the caller included
	blocked    int // runners whose node has yielded its slot
	idle       int // runners parked on wake
	done       chan struct{}
}

func newExecution(g *Graph, ex Executor, memo Memo, obs Observer) *execution {
	n := len(g.nodes)
	edges := 0
	for _, node := range g.nodes {
		edges += len(node.deps)
	}
	e := &execution{nodes: g.nodes, ex: ex, memo: memo, obs: obs, width: n, left: n, done: make(chan struct{})}
	if w, ok := ex.(interface{ Workers() int }); ok {
		e.width = max(w.Workers(), 1)
	}
	e.wake.L = &e.mu
	// The counts, the queue and the dependents lists share one backing
	// array; a dependents list is a run of it, not an append per edge.
	ints := make([]int32, 3*n+1+edges)
	e.pending, ints = ints[:n:n], ints[n:]
	e.queue, ints = ints[:0:n], ints[n:]
	e.first, e.dependents = ints[:n+1:n+1], ints[n+1:]
	for _, node := range g.nodes {
		e.pending[node.id] = int32(len(node.deps))
		if len(node.deps) == 0 {
			e.queue = append(e.queue, node.id)
		}
		for _, d := range node.deps {
			e.first[d.id+1]++
		}
	}
	for i := 1; i <= n; i++ {
		e.first[i] += e.first[i-1]
	}
	// Fill each list through its start offset, which leaves first[i] at
	// list i's end, then shift the offsets back by one list.
	for _, node := range g.nodes {
		for _, d := range node.deps {
			e.dependents[e.first[d.id]] = node.id
			e.first[d.id]++
		}
	}
	copy(e.first[1:], e.first[:n])
	e.first[0] = 0
	return e
}

// run is one runner: it pops ready nodes and runs them until every node
// has finished, parking while the queue is empty. It retires after its
// current node when more than width runners are unblocked, which happens
// once a node that yielded its slot has taken it back.
func (e *execution) run() {
	e.mu.Lock()
	for e.left > 0 && e.live-e.blocked <= e.width {
		if e.head == len(e.queue) {
			e.idle++
			e.wake.Wait()
			continue
		}
		n := e.nodes[e.queue[e.head]]
		e.head++
		e.dispatch()
		e.mu.Unlock()
		e.exec(n)
		e.mu.Lock()
		e.finish(n)
	}
	e.live--
	e.dispatch()
	e.mu.Unlock()
}

// dispatch finds runners for the nodes still queued: parked runners first,
// then new ones while fewer than width runners are unblocked. Callers hold
// mu.
func (e *execution) dispatch() {
	for q := len(e.queue) - e.head; q > 0; q-- {
		switch {
		case e.idle > 0:
			e.idle--
			e.wake.Signal()
		case e.live-e.blocked < e.width:
			e.live++
			go e.run()
		default:
			return
		}
	}
}

// finish queues the dependents n was the last unfinished dependency of and,
// after the last node, releases the parked runners and the caller. Callers
// hold mu.
func (e *execution) finish(n *Node) {
	for _, id := range e.dependents[e.first[n.id]:e.first[n.id+1]] {
		e.pending[id]--
		if e.pending[id] == 0 {
			e.queue = append(e.queue, id)
		}
	}
	e.left--
	if e.left == 0 {
		e.idle = 0
		e.wake.Broadcast()
		close(e.done)
	}
}

// Release is the runner's slot as a memo sees it: the node's pool slot goes
// back to ex for the wait, and the runner stops counting against width, so
// another runner takes the graph's queued nodes meanwhile.
func (e *execution) Release() {
	e.ex.Release()
	e.mu.Lock()
	e.blocked++
	e.dispatch()
	e.mu.Unlock()
}

// Acquire takes the node's pool slot back after a wait.
func (e *execution) Acquire() {
	e.ex.Acquire()
	e.mu.Lock()
	e.blocked--
	e.mu.Unlock()
}

// exec runs one popped node on the calling runner.
func (e *execution) exec(n *Node) {
	vals := make([]any, len(n.deps))
	for i, d := range n.deps {
		if d.err != nil {
			// Propagate the root cause unwrapped: Execute reports it once,
			// in insertion order, rather than once per dependent.
			n.err = d.err
			return
		}
		vals[i] = d.out
	}

	e.ex.Acquire()
	defer e.ex.Release()
	start := time.Now()

	if n.keyFn != nil {
		key, err := n.keyFn(vals)
		if err != nil {
			n.err = fmt.Errorf("plan: %s key: %w", n.stage, err)
			return
		}
		n.key = key
	}
	if e.memo == nil || n.key.Zero() {
		n.out, n.err = n.runFn(vals)
		if n.err == nil && e.obs != nil {
			notify(e.obs, n.stage, SourceComputed, time.Since(start))
		}
		return
	}
	v, src, err := e.memo.GetOrCompute(e, n.key, n.hint, func() (any, error) { return n.runFn(vals) })
	if err != nil {
		n.err = err
		return
	}
	n.out, n.hit = v, src.Hit()
	if e.obs != nil {
		notify(e.obs, n.stage, src, time.Since(start))
	}
}
