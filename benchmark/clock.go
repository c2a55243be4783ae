package main

import (
	"sort"
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock, the cheapest timestamp the
// gc toolchain exposes (same linkname internal/telemetry uses). The
// benchmark needs it cheap because a slab magazine hit costs less than a
// time.Now pair.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// calibrateClock returns the median cost in ns of one back-to-back clock
// pair, the constant every sampled latency and every child span carries.
func calibrateClock(clock func() int64) float64 {
	const n = 20001
	d := make([]float64, n)
	for i := range d {
		t0 := clock()
		d[i] = float64(clock() - t0)
	}
	return trimmedMean(d)
}

// trimmedMean is the mean of the middle half of vs. The clock ticks in
// whole ns, so a median of clock differences is an integer; the middle
// half keeps the fraction and still ignores the preempted outliers.
func trimmedMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range mid {
		sum += v
	}
	return sum / float64(len(mid))
}
