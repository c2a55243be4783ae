package main

import (
	"fmt"
	"math/bits"
)

// The benchmark's own latency histogram: exact 1 ns buckets below
// 2^subBits ns, then 2^subBits buckets per octave, so a bucket is never
// wider than 1/64 = 1.6 % of its lower edge. internal/telemetry's ladder
// has two buckets per octave (25 %), which made its p99 flip between
// 1535 and 2047 ns on identical runs.
const (
	subBits    = 6
	subCount   = 1 << subBits
	maxOctave  = 36 // values saturate at 2^37 ns (~137 s)
	numBuckets = (maxOctave - subBits + 2) * subCount
)

// hist is single-writer: each worker owns one per sampled operation and
// the generator merges them after the workers joined.
type hist struct {
	counts [numBuckets]uint64
	n      uint64
}

func bucketOf(ns int64) int {
	if ns < subCount {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	msb := bits.Len64(uint64(ns)) - 1
	if msb > maxOctave {
		return numBuckets - 1
	}
	sub := int(uint64(ns)>>(msb-subBits)) & (subCount - 1)
	return (msb-subBits+1)*subCount + sub
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < subCount {
		return float64(i), float64(i + 1)
	}
	octave := i/subCount - 1 + subBits
	sub := i % subCount
	width := float64(uint64(1) << (octave - subBits))
	lo = float64(uint64(1)<<octave) + float64(sub)*width
	return lo, lo + width
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile, interpolated linearly inside its
// bucket so the result moves smoothly with the distribution instead of
// jumping between bucket edges. Zero when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := bucketBounds(numBuckets - 1)
	return hi
}

// topPercentile names the highest percentile of {p50, p99, p999} that
// still has at least ten samples beyond it; percentiles above it are
// printed but must not be believed.
func topPercentile(n uint64) string {
	switch {
	case n >= 10000:
		return "p999"
	case n >= 1000:
		return "p99"
	case n >= 20:
		return "p50"
	}
	return "none"
}

func (h *hist) String() string {
	return fmt.Sprintf("p50=%.1f p99=%.1f p999=%.1f ns (n=%d, trust up to %s: >=10 samples beyond)",
		h.quantile(0.5), h.quantile(0.99), h.quantile(0.999), h.n, topPercentile(h.n))
}
