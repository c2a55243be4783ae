package stats

import "testing"

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
