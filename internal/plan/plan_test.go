package plan

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// obs records stage outcomes thread-safely.
type obs struct {
	mu     sync.Mutex
	hits   map[string]int
	misses map[string]int
}

// mapMemo is a Memo over a plain map: enough for tests that only need a
// value memoized by one execution to serve the next.
type mapMemo struct {
	mu   sync.Mutex
	vals map[Key]any
}

func newMapMemo() *mapMemo { return &mapMemo{vals: map[Key]any{}} }

func (m *mapMemo) GetOrCompute(_ Executor, key Key, _ any, compute func() (any, error)) (any, Source, error) {
	m.mu.Lock()
	v, ok := m.vals[key]
	m.mu.Unlock()
	if ok {
		return v, SourceMemory, nil
	}
	v, err := compute()
	if err != nil {
		return nil, SourceComputed, err
	}
	m.mu.Lock()
	m.vals[key] = v
	m.mu.Unlock()
	return v, SourceComputed, nil
}

func newObs() *obs { return &obs{hits: map[string]int{}, misses: map[string]int{}} }

func (o *obs) StageSource(stage string, src Source, _ time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if src.Hit() {
		o.hits[stage]++
	} else {
		o.misses[stage]++
	}
}

func TestGraphExecutesInDependencyOrder(t *testing.T) {
	g := New()
	a := g.Node("a", nil, StaticKey(Key{"a", "1"}), func([]any) (any, error) { return 2, nil })
	b := g.Node("b", nil, StaticKey(Key{"b", "1"}), func([]any) (any, error) { return 3, nil })
	mul := g.Node("mul", []*Node{a, b}, nil, func(deps []any) (any, error) {
		return deps[0].(int) * deps[1].(int), nil
	})
	// Key resolved late, from dependency values.
	sq := g.Node("sq", []*Node{mul}, func(deps []any) (Key, error) {
		return Key{"sq", fmt.Sprint(deps[0].(int))}, nil
	}, func(deps []any) (any, error) {
		return deps[0].(int) * deps[0].(int), nil
	})

	memo := newMapMemo()
	o := newObs()
	if err := g.Execute(NewPool(2), memo, o); err != nil {
		t.Fatal(err)
	}
	if sq.Value().(int) != 36 {
		t.Fatalf("sq = %v, want 36", sq.Value())
	}
	if got := sq.ResolvedKey(); got != (Key{"sq", "6"}) {
		t.Fatalf("late-bound key = %v", got)
	}
	if mul.ResolvedKey() != (Key{}) || mul.Hit() {
		t.Fatalf("glue node must stay unmemoized")
	}
	if o.misses["sq"] != 1 || o.hits["sq"] != 0 {
		t.Fatalf("observer: %+v", o)
	}

	// Second execution over the same memo: memoized stages hit, values equal.
	g2 := New()
	a2 := g2.Node("a", nil, StaticKey(Key{"a", "1"}), func([]any) (any, error) { return -1, nil })
	if err := g2.Execute(NewPool(1), memo, o); err != nil {
		t.Fatal(err)
	}
	if !a2.Hit() || a2.Value().(int) != 2 {
		t.Fatalf("memo must serve the first execution's value: hit=%v v=%v", a2.Hit(), a2.Value())
	}
}

func TestGraphErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	g := New()
	bad := g.Node("bad", nil, nil, func([]any) (any, error) { return nil, boom })
	var downstreamRan atomic.Bool
	g.Node("down", []*Node{bad}, nil, func([]any) (any, error) {
		downstreamRan.Store(true)
		return nil, nil
	})
	g.Node("ok", nil, nil, func([]any) (any, error) { return 1, nil })

	err := g.Execute(NewPool(4), nil, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if downstreamRan.Load() {
		t.Fatal("downstream of a failed node must not run")
	}
}

func TestGraphFirstErrorInInsertionOrder(t *testing.T) {
	g := New()
	for i := 0; i < 8; i++ {
		i := i
		g.Node("n", nil, nil, func([]any) (any, error) { return nil, fmt.Errorf("err-%d", i) })
	}
	err := g.Execute(NewPool(8), nil, nil)
	if err == nil || err.Error() != "err-0" {
		t.Fatalf("err = %v, want err-0", err)
	}
}

func TestGraphKeyErrorFails(t *testing.T) {
	g := New()
	g.Node("k", nil, func([]any) (Key, error) { return Key{}, errors.New("no key") },
		func([]any) (any, error) { return 1, nil })
	if err := g.Execute(NewPool(1), newMapMemo(), nil); err == nil {
		t.Fatal("want key resolution error")
	}
}

func TestGraphNodesOverlapWithinPool(t *testing.T) {
	// Two independent slow nodes on a 2-wide pool must overlap: their
	// combined wall time stays well under the serial sum. This is the
	// property that lets a capped reference run overlap verification.
	g := New()
	const d = 40 * time.Millisecond
	slow := func([]any) (any, error) { time.Sleep(d); return nil, nil }
	g.Node("x", nil, nil, slow)
	g.Node("y", nil, nil, slow)
	start := time.Now()
	if err := g.Execute(NewPool(2), nil, nil); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 2*d-d/4 {
		t.Fatalf("independent nodes did not overlap: %v", wall)
	}
}

func TestPoolAcquireReleaseBounds(t *testing.T) {
	p := NewPool(2)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Acquire()
			defer p.Release()
			c := cur.Add(1)
			for {
				old := peak.Load()
				if c <= old || peak.CompareAndSwap(old, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		}()
	}
	wg.Wait()
	if peak.Load() > 2 {
		t.Fatalf("peak concurrency %d exceeds pool width", peak.Load())
	}
}

// TestEachRunsEveryIndexOnce: whatever the worker count — the plain loop at
// one, a worker group above — every index runs exactly once and Each returns
// only after all have; with one worker the order is ascending.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			ran := make([]atomic.Int32, n)
			var order []int
			Each(n, func(i int) {
				ran[i].Add(1)
				if procs == 1 {
					order = append(order, i)
				}
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, got)
				}
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("one worker ran index %d at position %d", got, i)
				}
			}
		}
	}
}

// eventLog is one sequence of events from several goroutines.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// recordingPool is a *Pool that logs each slot it grants, once granted, and
// each it takes back, before it is back.
type recordingPool struct {
	*Pool
	log *eventLog
}

func (p recordingPool) Acquire() { p.Pool.Acquire(); p.log.add("acquire") }
func (p recordingPool) Release() { p.log.add("release"); p.Pool.Release() }

// yieldingMemo, like a tier waiting on the network or on another node's
// flight, gives the slot it is handed up around a wait, and logs "yield"
// before giving it up and "resume" once it has it back: the "waiter" key
// announces itself and waits for the "opener" key's compute, the opener
// waits for the announcement first — so on a one-slot pool each can only
// proceed while the other has yielded.
type yieldingMemo struct {
	log     *eventLog
	entered chan struct{}
	opened  chan struct{}
	holders width // consultations currently holding a slot
}

// width counts how many goroutines are inside a section at once and
// remembers the most it saw.
type width struct{ cur, peak atomic.Int64 }

func (w *width) enter() { raise(&w.peak, w.cur.Add(1)) }

// raise lifts peak to n when n is higher.
func raise(peak *atomic.Int64, n int64) {
	for {
		old := peak.Load()
		if n <= old || peak.CompareAndSwap(old, n) {
			return
		}
	}
}

func (w *width) leave() { w.cur.Add(-1) }

func (m *yieldingMemo) GetOrCompute(slot Executor, key Key, _ any, compute func() (any, error)) (any, Source, error) {
	m.holders.enter()
	defer m.holders.leave()

	wait := m.entered
	if key.Hash == "waiter" {
		close(m.entered)
		wait = m.opened
	}
	m.holders.leave()
	m.log.add("yield")
	slot.Release()
	<-wait
	slot.Acquire()
	m.log.add("resume")
	m.holders.enter()

	v, err := compute()
	return v, SourceComputed, err
}

// TestMemoSlotIsTheExecutor: the slot a memo is handed reaches the Executor
// the graph runs under — yielding it around a wait frees a real slot of that
// executor: the two nodes below finish on a one-slot pool, and never hold a
// slot together. On one slot the log is exact: every yield is immediately
// followed by the pool taking the slot back, and every resume immediately
// preceded by the pool granting it, since nothing else can touch the pool
// or the memo while the yielding node holds the only slot.
func TestMemoSlotIsTheExecutor(t *testing.T) {
	log := &eventLog{}
	pool := recordingPool{Pool: NewPool(1), log: log}
	memo := &yieldingMemo{log: log, entered: make(chan struct{}), opened: make(chan struct{})}
	g := New()
	g.Node("s", nil, StaticKey(Key{"s", "waiter"}), func([]any) (any, error) { return nil, nil })
	g.Node("s", nil, StaticKey(Key{"s", "opener"}), func([]any) (any, error) {
		close(memo.opened)
		return nil, nil
	})
	done := make(chan error, 1)
	go func() { done <- g.Execute(pool, memo, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("graph deadlocked on a one-slot pool although its memo yields the slot around every wait")
	}
	events := log.events
	yields := 0
	for i, ev := range events {
		switch ev {
		case "yield":
			yields++
			if i+1 == len(events) || events[i+1] != "release" {
				t.Errorf("yield at %d did not reach the pool as a release: %v", i, events)
			}
		case "resume":
			if i == 0 || events[i-1] != "acquire" {
				t.Errorf("resume at %d did not come from the pool's grant: %v", i, events)
			}
		}
	}
	if yields != 2 {
		t.Fatalf("memo yielded %d times, want 2: %v", yields, events)
	}
	if p := memo.holders.peak.Load(); p > int64(pool.Workers()) {
		t.Errorf("%d nodes held a slot at once on a %d-slot pool", p, pool.Workers())
	}
}

// blockingMemo yields the slot of the node keyed "block" until release is
// closed (or a timeout passes); every other key computes in place.
type blockingMemo struct{ release chan struct{} }

func (m blockingMemo) GetOrCompute(slot Executor, key Key, _ any, compute func() (any, error)) (any, Source, error) {
	if key.Hash == "block" {
		slot.Release()
		select {
		case <-m.release:
		case <-time.After(3 * time.Second):
		}
		slot.Acquire()
	}
	v, err := compute()
	return v, SourceComputed, err
}

// TestYieldHandsOffTheRunner: a node that yields its slot inside the memo
// hands off its runner too. On a 2-slot pool, while the first node waits,
// the graph's other ready nodes must still run two at a time — each waits
// for a partner — rather than one by one on the only runner left; the
// waiting node is released once two of them overlap.
func TestYieldHandsOffTheRunner(t *testing.T) {
	pool := NewPool(2)
	paired := make(chan struct{})
	var once sync.Once
	var running width
	g := New()
	g.Node("s", nil, StaticKey(Key{"s", "block"}), func([]any) (any, error) { return nil, nil })
	for i := 0; i < 6; i++ {
		g.Node("s", nil, StaticKey(Key{"s", fmt.Sprint(i)}), func([]any) (any, error) {
			running.enter()
			defer running.leave()
			if running.cur.Load() >= 2 {
				once.Do(func() { close(paired) })
			}
			select {
			case <-paired:
			case <-time.After(500 * time.Millisecond):
			}
			return nil, nil
		})
	}
	if err := g.Execute(pool, blockingMemo{release: paired}, nil); err != nil {
		t.Fatal(err)
	}
	if p := running.peak.Load(); p != 2 {
		t.Fatalf("peak concurrency %d while a node had yielded its slot on a 2-slot pool, want 2", p)
	}
}

// TestExecuteBoundsGoroutines: a graph runs on at most Workers runners, the
// caller among them, however many nodes it has — goroutines sampled inside
// node work stay within the baseline plus the pool's width plus one.
func TestExecuteBoundsGoroutines(t *testing.T) {
	pool := NewPool(2)
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	g := levelled(4, 100, func([]any) (any, error) {
		raise(&peak, int64(runtime.NumGoroutine()))
		runtime.Gosched()
		return nil, nil
	})
	if err := g.Execute(pool, nil, nil); err != nil {
		t.Fatal(err)
	}
	if limit := int64(before + pool.Workers() + 1); peak.Load() > limit {
		t.Fatalf("%d goroutines inside a 400-node graph on a %d-slot pool, want at most %d", peak.Load(), pool.Workers(), limit)
	}
}

// levelled builds a graph of levels×perLevel nodes running fn, in which
// every node depends on the whole level before it — the shape of every
// graph the repository builds.
func levelled(levels, perLevel int, fn func([]any) (any, error)) *Graph {
	g := New()
	var prev []*Node
	for l := 0; l < levels; l++ {
		cur := make([]*Node, perLevel)
		for i := range cur {
			cur[i] = g.Node(fmt.Sprint("level", l), prev, nil, fn)
		}
		prev = cur
	}
	return g
}

// TestConcurrentGraphsShareOnePool: two graphs executed at once on one pool
// both finish, together never run more nodes than the pool is wide, and an
// execution leaves no goroutine behind.
func TestConcurrentGraphsShareOnePool(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(2)
	var running width
	var ran atomic.Int64
	node := func([]any) (any, error) {
		running.enter()
		runtime.Gosched() // widen the overlap window
		ran.Add(1)
		running.leave()
		return nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		g := levelled(5, 10, node)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Execute(pool, nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if ran.Load() != 100 {
		t.Fatalf("%d nodes ran, want 100", ran.Load())
	}
	if p := running.peak.Load(); p > 2 {
		t.Fatalf("%d nodes ran at once on a 2-slot pool", p)
	}
	// Runners finish the last node before they return; give the last ones a
	// moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after both executions returned", before, after)
	}
}

// BenchmarkNoopDAG is the plan layer's own microbenchmark: the graph
// DebloatBatch builds for a four-member batch on the two largest paper rows
// (4 detects → union → one compact per library → verifyprobe → 2 clone
// chunks → join → 4 verifies), every node a no-op and no memo, so what is
// timed is node dispatch alone. Graph construction is outside the timer.
func BenchmarkNoopDAG(b *testing.B) {
	noop := func([]any) (any, error) { return nil, nil }
	fan := func(g *Graph, stage string, n int, deps []*Node) []*Node {
		out := make([]*Node, n)
		for i := range out {
			out[i] = g.Node(stage, deps, nil, noop)
		}
		return out
	}
	for _, row := range []struct {
		name string
		libs int
	}{{"pytorch141", 154}, {"tensorflow388", 398}} {
		b.Run(row.name, func(b *testing.B) {
			pool := NewPool(runtime.GOMAXPROCS(0))
			nodes := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := New()
				detects := fan(g, "detect", 4, nil)
				union := fan(g, "union", 1, detects)
				compacts := fan(g, "compact", row.libs, union)
				probe := fan(g, "verifyprobe", 1, compacts)[0]
				afterProbe := func(deps ...*Node) []*Node { return append([]*Node{probe}, deps...) }
				half := len(compacts) / 2
				chunks := []*Node{
					g.Node("clone", afterProbe(compacts[:half]...), nil, noop),
					g.Node("clone", afterProbe(compacts[half:]...), nil, noop),
				}
				join := g.Node("clone", afterProbe(chunks...), nil, noop)
				fan(g, "verifyrun", 4, afterProbe(join))
				nodes = g.Len()
				b.StartTimer()
				if err := g.Execute(pool, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
		})
	}
}
