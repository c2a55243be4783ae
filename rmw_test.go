package nbbs_test

import (
	"testing"

	"repro/internal/alloc"
)

// TestRMWPerOpSectionIIID pins the paper's §III.D claim as exact counts:
// a single goroutine running alloc+free pairs on benchInstance (depth 21,
// max level 10) issues 35 RMWs per pair on the 1-level leaf (reserve + 11
// climb marks; 11 coalescing marks + release + 11 unmarks) and 8 on the
// 4-level leaf (two climb steps per direction) at 8 B, 14 and 5 at 1 KiB,
// with no CAS ever failing. BenchmarkAblationRMWCount reports the same
// ratios under contention.
func TestRMWPerOpSectionIIID(t *testing.T) {
	for _, c := range []struct {
		variant string
		size    uint64
		rmwOp   float64
	}{
		{"1lvl-nb", 8, 17.5},
		{"1lvl-nb", 1024, 7.0},
		{"4lvl-nb", 8, 4.0},
		{"4lvl-nb", 1024, 2.5},
	} {
		a, err := alloc.Build(c.variant, benchInstance)
		if err != nil {
			t.Fatal(err)
		}
		h := a.NewHandle()
		for i := 0; i < 1000; i++ {
			off, ok := h.Alloc(c.size)
			if !ok {
				t.Fatalf("%s: Alloc(%d) failed on an empty instance", c.variant, c.size)
			}
			h.Free(off)
		}
		s := a.Stats()
		if got := float64(s.RMW) / float64(s.OpsTotal()); got != c.rmwOp || s.CASFail != 0 {
			t.Errorf("%s at %d B: %.3f RMW/op, %d CAS fails; want %.1f and 0",
				c.variant, c.size, got, s.CASFail, c.rmwOp)
		}
	}
}
