package bunch

import (
	"testing"

	"repro/internal/alloc"
)

// TestLockstepHeights drives k = 1 and k = 4 with one seeded
// single-goroutine tape of mixed allocations and frees and requires the
// same (offset, ok) from both at every step: the bunch height changes the
// storage, not the algorithm. The k = 1 totals are pinned to the ones the
// original standalone 1-level leaf produced on the same tapes, so the
// paper's 1lvl-nb baseline keeps its exact RMW, CAS-fail and retry
// profile.
func TestLockstepHeights(t *testing.T) {
	for _, c := range []struct {
		total, maxSize, seed uint64
		golden               alloc.Stats // k = 1
	}{
		{16 << 10, 16 << 10, 1, alloc.Stats{Allocs: 22612, Frees: 22612, AllocFails: 14852, RMW: 468829, Retries: 21085}},
		{1 << 20, 64 << 10, 2, alloc.Stats{Allocs: 24692, Frees: 24692, AllocFails: 12703, RMW: 1252256, Retries: 164303}},
	} {
		a1 := mustNew(t, 1, c.total, 8, c.maxSize)
		a4 := mustNew(t, 4, c.total, 8, c.maxSize)
		runTape(t, c.seed, 60000, a1, a4)
		if got := a1.Stats(); got != c.golden {
			t.Errorf("total=%d: k=1 stats %+v, want %+v", c.total, got, c.golden)
		}
		if i := dirtyWord(a1); i >= 0 {
			t.Errorf("total=%d: k=1 word %d dirty after the tape drained", c.total, i)
		}
		if i := dirtyWord(a4); i >= 0 {
			t.Errorf("total=%d: k=4 word %d dirty after the tape drained", c.total, i)
		}
	}
}

// runTape drives one seeded tape of ops allocations (sizes log-uniform
// over the servable levels, rounded off powers of two) and frees of a
// random live chunk, through two handles of every allocator in as at
// once, then frees what is left. It fails at the first step where the
// allocators disagree.
func runTape(t *testing.T, seed uint64, ops int, as ...alloc.Allocator) {
	t.Helper()
	geo := as[0].Geometry()
	hs := make([][2]alloc.Handle, len(as))
	for i, a := range as {
		hs[i] = [2]alloc.Handle{a.NewHandle(), a.NewHandle()}
	}
	rng := seed
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	levels := uint64(geo.Depth - geo.MaxLevel + 1)
	var live []uint64
	for step := 0; step < ops; step++ {
		r := next()
		who := r >> 63
		if len(live) > 0 && r%8 < 3 {
			j := int(next() % uint64(len(live)))
			off := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			for i := range as {
				hs[i][who].Free(off)
			}
			continue
		}
		size := geo.MaxSize >> (next() % levels)
		size -= next() % (size/2 + 1)
		off, ok := hs[0][who].Alloc(size)
		for i := 1; i < len(as); i++ {
			if o, k := hs[i][who].Alloc(size); o != off || k != ok {
				t.Fatalf("step %d: Alloc(%d) = (%#x, %v) on %s but (%#x, %v) on %s",
					step, size, off, ok, as[0].Name(), o, k, as[i].Name())
			}
		}
		if ok {
			live = append(live, off)
		}
	}
	for _, off := range live {
		for i := range as {
			hs[i][0].Free(off)
		}
	}
}
