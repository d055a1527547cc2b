package cudasim

import "time"

// Clock is the deterministic virtual clock every simulated cost is charged
// to. All "execution time" the experiments report is virtual time.
type Clock struct {
	now time.Duration
}

// Advance moves the clock forward. Negative durations are ignored.
func (c *Clock) Advance(d time.Duration) {
	if d > 0 {
		c.now += d
	}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Reset rewinds the clock to zero.
func (c *Clock) Reset() { c.now = 0 }

// MemTracker accounts current and peak usage of one memory pool.
type MemTracker struct {
	Cur  int64
	Peak int64
}

// Alloc adds n bytes and updates the peak.
func (m *MemTracker) Alloc(n int64) {
	m.Cur += n
	if m.Cur > m.Peak {
		m.Peak = m.Cur
	}
}

// Free releases n bytes (clamped at zero).
func (m *MemTracker) Free(n int64) {
	m.Cur -= n
	if m.Cur < 0 {
		m.Cur = 0
	}
}

// CostModel holds the virtual-time cost constants. The defaults are
// calibrated so baseline workloads land near the paper's reported
// wall-clock numbers; cmd/experiments prints the outcome.
type CostModel struct {
	// CPULoadPerByte is charged per resident byte when a shared library is
	// mapped and paged in (zero pages are free — that is what compaction
	// saves).
	CPULoadPerByte time.Duration
	// GPULoadPerByte is charged per byte of device code copied to the GPU.
	GPULoadPerByte time.Duration
	// GetFunctionCost is the fixed cost of cuModuleGetFunction.
	GetFunctionCost time.Duration
	// LaunchCost is the fixed cost of one host-side kernel launch.
	LaunchCost time.Duration
	// ChildLaunchCost is the cost of one device-side (GPU-launching) child
	// kernel launch.
	ChildLaunchCost time.Duration
}

// DefaultCostModel returns the calibrated defaults.
func DefaultCostModel() CostModel {
	return CostModel{
		CPULoadPerByte:  1200 * time.Nanosecond,
		GPULoadPerByte:  300 * time.Nanosecond,
		GetFunctionCost: 20 * time.Microsecond,
		LaunchCost:      8 * time.Microsecond,
		ChildLaunchCost: 2 * time.Microsecond,
	}
}
