package main

import (
	"math"
	"sort"
	"time"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile (0 ≤ q ≤ 1) of the sample by linear
// interpolation between order statistics. An empty sample yields 0.
func percentile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(sample []float64) float64 { return percentile(sample, 0.5) }

// geomean combines per-row latencies so that a gain on any one row moves
// the result by that row's ratio, whatever the row's absolute size. Every
// value must be positive; an empty input yields 0.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var logs float64
	for _, v := range vals {
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vals)))
}

// ratio is a/b, and 0 when b is 0: per-layer ratios of a layer the workload
// never entered read 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
