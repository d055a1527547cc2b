package dserve

import (
	"sync"
	"sync/atomic"
	"testing"

	"negativaml/internal/plan"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := plan.NewPool(3)
	if p.Workers() != 3 {
		t.Fatalf("workers = %d, want 3", p.Workers())
	}
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Acquire()
			defer p.Release()
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			for j := 0; j < 1000; j++ { // widen the overlap window
				_ = j
			}
			cur.Add(-1)
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Errorf("peak concurrency = %d, want <= 3", got)
	}
}

func TestPoolEdgeCases(t *testing.T) {
	for _, workers := range []int{0, -5} {
		p := plan.NewPool(workers)
		if p.Workers() != 1 {
			t.Errorf("plan.NewPool(%d) has %d workers, want 1", workers, p.Workers())
		}
		p.Acquire() // a one-slot pool still admits a task
		p.Release()
	}
}
