// Package stats provides the small statistical and unit-conversion helpers
// the benchmark harness reports with: repetition summaries and the nominal
// clock-cycle conversion used to present Figure 12 in the paper's unit.
package stats

import (
	"math"
	"time"
)

// Summary condenses repeated measurements of one experiment cell.
type Summary struct {
	N    int
	Mean float64
}

// Summarize computes a Summary of the samples.
func Summarize(samples []float64) Summary {
	s := Summary{N: len(samples)}
	if s.N == 0 {
		return s
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	return s
}

// Cycles converts a duration to nominal clock cycles at the given clock
// rate in GHz. The paper's Figure 12 reports rdtsc cycle counts on a 2 GHz
// Opteron; reporting our wall time in the same unit keeps the axes
// comparable without pretending to cycle-accurate measurement.
func Cycles(d time.Duration, ghz float64) float64 {
	return d.Seconds() * ghz * 1e9
}

// Speedup returns how much faster b is than a (a/b), e.g. 2.0 when b takes
// half the time of a.
func Speedup(a, b time.Duration) float64 {
	if b <= 0 {
		return math.Inf(1)
	}
	return float64(a) / float64(b)
}

// GainPercent expresses the paper's "performance gain" of fast vs slow:
// (slow-fast)/slow * 100.
func GainPercent(slow, fast float64) float64 {
	if slow == 0 {
		return 0
	}
	return (slow - fast) / slow * 100
}
