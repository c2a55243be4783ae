package stats

import (
	"math"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 6})
	if s.N != 3 || s.Mean != 4 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}

func TestCycles(t *testing.T) {
	if got := Cycles(time.Second, 2); got != 2e9 {
		t.Fatalf("Cycles(1s, 2GHz) = %g", got)
	}
	if got := Cycles(500*time.Millisecond, 1); got != 5e8 {
		t.Fatalf("Cycles(0.5s, 1GHz) = %g", got)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2*time.Second, time.Second); got != 2 {
		t.Fatalf("Speedup = %f", got)
	}
	if !math.IsInf(Speedup(time.Second, 0), 1) {
		t.Fatal("Speedup over zero must be +Inf")
	}
}

func TestGainPercent(t *testing.T) {
	// The paper reports gains like "84%": slow=100, fast=16 -> 84%.
	if got := GainPercent(100, 16); got != 84 {
		t.Fatalf("GainPercent = %f", got)
	}
	if GainPercent(0, 5) != 0 {
		t.Fatal("zero baseline must yield 0")
	}
}
