package main

import (
	"fmt"
	"syscall"
	"time"
)

// This sandbox changes speed under the benchmark: the same binary reads 15
// to 35 % slower in one minute than in the next, on every workload at once
// (NOISE.md). The slow periods are invisible to compute-bound work — a
// SHA-256 loop reads the same throughout — and show in cache-resident
// stores and in kernel entries, which is also where the program spends its
// time. The calibrator therefore times a fixed unit of such work after
// every op of a closed loop, and in the gaps between the bursts of the open
// one; the run's time-based end-to-end metrics are reported at the speed of
// a reference machine, i.e. scaled by calibRefMS over the run's median unit,
// with the raw readings printed beside them.
//
// The unit shares no code and no memory with the program: it writes into
// its own preallocated arena and makes its own system calls, allocates
// nothing, and so neither reads nor moves the state of the Go heap. A
// deliberate doubling of the program's allocation did not move it (NOISE.md:
// 1.00 and 1.01 times the reading without, in ten interleaved pairs each on
// cold_ingest and warm_resubmit), where the parts tried before it did: a
// 16 MiB copy read 6 to 9 % slower behind the extra garbage, 4096 small
// allocations 6 %.

// calibRefMS is about what the unit reads on this sandbox in a fast period.
// It only fixes the scale calibrated times are expressed at.
const calibRefMS = 0.085

const (
	calibRecords = 4096 // records per pass over the arena
	calibRecord  = 64   // bytes each
)

// calibrator holds the unit's buffers and its readings, one series per part.
type calibrator struct {
	arena []byte   // calibRecords records: 256 KiB, resident in L2
	index []uint32 // where each record went
	pipe  [2]int
	parts [2][]float64
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{arena: make([]byte, calibRecords*calibRecord), index: make([]uint32, calibRecords)}
	if err := syscall.Pipe2(c.pipe[:], syscall.O_CLOEXEC); err != nil {
		return nil, fmt.Errorf("calibrator: pipe: %w", err)
	}
	return c, nil
}

func (c *calibrator) close() {
	syscall.Close(c.pipe[0])
	syscall.Close(c.pipe[1])
}

// unit runs the two parts once, a fifth of a millisecond in all: eight
// passes of clearing and heading 4096 records in the arena (stores into
// cache-resident memory, as an allocator and a map make them), and 64
// one-byte round trips through a pipe (kernel entry and exit).
func (c *calibrator) unit() {
	t0 := time.Now()
	for pass := 0; pass < 8; pass++ {
		for i := 0; i < calibRecords; i++ {
			rec := c.arena[i*calibRecord : i*calibRecord+calibRecord]
			clear(rec)
			rec[0] = byte(i)
			rec[8] = byte(pass)
			c.index[i] = uint32(i * calibRecord)
		}
	}
	c.parts[0] = append(c.parts[0], ms(time.Since(t0)))

	t0 = time.Now()
	var b [1]byte
	for i := 0; i < 64; i++ {
		// An empty pipe takes the byte and a pipe holding one gives it back:
		// neither call blocks, and a failure would show as a reading of
		// nothing, so the results are dropped.
		_, _ = syscall.Write(c.pipe[1], b[:])
		_, _ = syscall.Read(c.pipe[0], b[:])
	}
	c.parts[1] = append(c.parts[1], ms(time.Since(t0)))
}

// readings is how often the unit has run.
func (c *calibrator) readings() int { return len(c.parts[0]) }

// ms is the run's calibration reading: the geometric mean of the parts'
// medians, so the longer part does not outweigh the other.
func (c *calibrator) ms() float64 {
	meds := make([]float64, 0, len(c.parts))
	for _, p := range c.parts {
		if len(p) > 0 {
			meds = append(meds, median(p))
		}
	}
	return geomean(meds)
}

// scale is the factor that brings a time measured in this run to the
// reference speed.
func (c *calibrator) scale() float64 {
	if unit := c.ms(); unit > 0 {
		return calibRefMS / unit
	}
	return 1
}
