package main

import (
	"math"
	"testing"
)

func TestHistBucketsAreNarrowAndContiguous(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %v, previous ended at %v", i, lo, prevHi)
		}
		if lo >= subCount && (hi-lo)/lo > 0.03 {
			t.Fatalf("bucket %d [%v,%v) is wider than 3 %%", i, lo, hi)
		}
		prevHi = hi
	}
	for _, ns := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1535, 2047, 1 << 20, 1<<37 - 1} {
		lo, hi := bucketBounds(bucketOf(ns))
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("%d ns landed in bucket [%v,%v)", ns, lo, hi)
		}
	}
	if bucketOf(1<<40) != numBuckets-1 || bucketOf(-5) != 0 {
		t.Error("out-of-range values must saturate")
	}
}

func TestHistQuantileInterpolatesAndMerges(t *testing.T) {
	var a, b hist
	for v := int64(1); v <= 1000; v++ {
		if v%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	if a.n != 1000 {
		t.Fatalf("merged count %d", a.n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := a.quantile(q), q*1000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %v, want about %v", q, got, want)
		}
	}
	if (&hist{}).quantile(0.5) != 0 {
		t.Error("empty histogram must report 0")
	}
}

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[uint64]string{5: "none", 20: "p50", 999: "p50", 1000: "p99", 9999: "p99", 10000: "p999"} {
		if got := topPercentile(n); got != want {
			t.Errorf("topPercentile(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 || median(vs) != 5.5 {
		t.Errorf("quartiles %v..%v median %v", q1, q3, median(vs))
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles %v..%v", q1, q3)
	}
}
