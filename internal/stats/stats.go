// Package stats provides the repetition summary the benchmark harness
// reports with.
package stats

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
