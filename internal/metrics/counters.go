package metrics

import (
	"sort"
	"sync"
	"time"
)

// CounterSet is a named set of counters safe for concurrent use. Most
// series are monotonic (hits, misses, evictions, job counts); a series may
// instead be documented as a gauge whose deltas go both ways (cache.bytes,
// the result cache's retained-byte level). The batch-debloat service
// (internal/dserve) publishes through one shared set, which the HTTP
// metrics endpoint snapshots.
type CounterSet struct {
	mu sync.RWMutex
	v  map[string]int64
}

// NewCounterSet returns an empty counter set.
func NewCounterSet() *CounterSet { return &CounterSet{v: map[string]int64{}} }

// Add increments the named counter by delta.
func (c *CounterSet) Add(name string, delta int64) {
	c.mu.Lock()
	c.v[name] += delta
	c.mu.Unlock()
}

// Get returns the counter's current value (0 when never touched).
func (c *CounterSet) Get(name string) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.v[name]
}

// Snapshot copies every counter.
func (c *CounterSet) Snapshot() map[string]int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.v))
	for k, v := range c.v {
		out[k] = v
	}
	return out
}

// Names returns the counter names in sorted order.
func (c *CounterSet) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.v))
	for k := range c.v {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// TimingSet records named duration samples (stored in milliseconds) for
// Distribution summaries — per-job wall times, per-stage latencies. Each
// series is a bounded ring holding the most recent maxTimingSamples
// observations, so a long-running service neither leaks nor slows its
// metrics endpoint.
type TimingSet struct {
	mu sync.Mutex
	v  map[string]*timingRing
}

// maxTimingSamples bounds each series; summaries reflect the most recent
// window. Sample order is irrelevant to Summarize, so a ring suffices.
const maxTimingSamples = 1024

type timingRing struct {
	samples []float64
	next    int // overwrite position once the ring is full
}

func (r *timingRing) add(v float64) {
	if len(r.samples) < maxTimingSamples {
		r.samples = append(r.samples, v)
		return
	}
	r.samples[r.next] = v
	r.next = (r.next + 1) % maxTimingSamples
}

// NewTimingSet returns an empty timing set.
func NewTimingSet() *TimingSet { return &TimingSet{v: map[string]*timingRing{}} }

// Observe appends one duration sample to the named series.
func (t *TimingSet) Observe(name string, d time.Duration) {
	t.mu.Lock()
	r := t.v[name]
	if r == nil {
		r = &timingRing{}
		t.v[name] = r
	}
	r.add(float64(d) / float64(time.Millisecond))
	t.mu.Unlock()
}

// Summary summarizes the named series in milliseconds (zero Distribution
// when the series is empty).
func (t *TimingSet) Summary(name string) Distribution {
	t.mu.Lock()
	var s []float64
	if r := t.v[name]; r != nil {
		s = append(s, r.samples...)
	}
	t.mu.Unlock()
	return Summarize(s)
}

// Snapshot summarizes every series.
func (t *TimingSet) Snapshot() map[string]Distribution {
	t.mu.Lock()
	names := make([]string, 0, len(t.v))
	for k := range t.v {
		names = append(names, k)
	}
	t.mu.Unlock()
	out := make(map[string]Distribution, len(names))
	for _, n := range names {
		out[n] = t.Summary(n)
	}
	return out
}
