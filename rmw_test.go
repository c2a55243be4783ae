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
// with no CAS ever failing. The batch rows run rounds of AllocBatch(size,
// 64) and FreeBatch instead: a 4-level bunch's eight 8 B leaves share a
// word and every ancestor, so one reservation CAS and one climb serve
// eight chunks, and one coalescing climb, one clearing CAS and one unmark
// release them (43 RMWs per round of 128 ops: 17 to allocate, 26 to
// free), where the 1-level leaf, one lane per bunch, still reserves and
// releases each chunk by itself; at 1 KiB a 4-level node fills its
// bunch, so batching saves nothing there either.
// BenchmarkAblationRMWCount reports the same ratios under contention.
func TestRMWPerOpSectionIIID(t *testing.T) {
	for _, c := range []struct {
		variant string
		size    uint64
		batch   int // chunks per AllocBatch; 0 runs single alloc/free pairs
		rmwOp   float64
	}{
		{"1lvl-nb", 8, 0, 17.5},
		{"1lvl-nb", 1024, 0, 7.0},
		{"4lvl-nb", 8, 0, 4.0},
		{"4lvl-nb", 1024, 0, 2.5},
		{"1lvl-nb", 8, 64, 4.0703125},
		{"1lvl-nb", 1024, 64, 3.8125},
		{"4lvl-nb", 8, 64, 0.3359375},
		{"4lvl-nb", 1024, 64, 2.5},
	} {
		a, err := alloc.Build(c.variant, benchInstance)
		if err != nil {
			t.Fatal(err)
		}
		h := a.NewHandle()
		for i := 0; i < 1000; i++ {
			if c.batch > 0 {
				offs := alloc.HandleAllocBatch(h, c.size, c.batch)
				if len(offs) != c.batch {
					t.Fatalf("%s: AllocBatch(%d, %d) = %d chunks on an empty instance", c.variant, c.size, c.batch, len(offs))
				}
				alloc.HandleFreeBatch(h, offs)
				continue
			}
			off, ok := h.Alloc(c.size)
			if !ok {
				t.Fatalf("%s: Alloc(%d) failed on an empty instance", c.variant, c.size)
			}
			h.Free(off)
		}
		s := a.Stats()
		if got := float64(s.RMW) / float64(s.OpsTotal()); got != c.rmwOp || s.CASFail != 0 {
			t.Errorf("%s at %d B, batch %d: %.4f RMW/op, %d CAS fails; want %.4f and 0",
				c.variant, c.size, c.batch, got, s.CASFail, c.rmwOp)
		}
	}
}
