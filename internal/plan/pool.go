package plan

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the bounded worker executor shared by the stage-graph scheduler
// and the batch service: a counting semaphore capping how many tasks —
// graph nodes, per-library compactions, per-workload detection and
// verification runs — execute concurrently across all jobs.
type Pool struct {
	sem chan struct{}
}

// NewPool returns a pool running at most workers tasks at once (workers < 1
// is treated as 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the concurrency bound, which is also how many runner
// goroutines Graph.Execute gives each graph it runs on the pool.
func (p *Pool) Workers() int { return cap(p.sem) }

// Acquire takes a worker slot, blocking until one is free. Holders must
// not Acquire again before Release — the stage scheduler never does (a
// node holds its slot only while running, never while waiting on
// dependencies).
func (p *Pool) Acquire() { p.sem <- struct{}{} }

// Release returns a worker slot.
func (p *Pool) Release() { <-p.sem }

// Each runs fn(i) for every i in [0, n) on min(GOMAXPROCS, n) goroutines
// and returns once all calls have: the fan-out for per-file and per-library
// work that runs before a stage graph exists to carry it (classifying a
// tree's files, indexing an install's libraries). The workers pull indexes
// from one counter in ascending order, so the goroutine count follows the
// CPUs, not n; with one worker fn runs as a plain loop on the caller's
// goroutine.
func Each(n int, fn func(int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for ; workers > 0; workers-- {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
