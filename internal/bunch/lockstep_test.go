package bunch

import (
	"testing"

	"repro/internal/alloc"
)

// TestLockstepHeights drives k = 1 and k = 4, under both disciplines
// (1lvl-nb, 4lvl-nb, 1lvl-sl, 4lvl-sl), with one seeded single-goroutine
// tape of mixed allocations and frees and requires the same (offset, ok)
// from all four at every step: neither the bunch height nor the spin-lock
// changes the algorithm. The k = 1 totals are pinned so that any change
// to where the scan starts or how it walks shows up as a moved RMW, retry
// or failure count; the SL ones are the NB golden with no RMW or CAS
// failure and one lock acquisition per operation, so the discipline moves
// nothing but its own counters. maxFails caps the failed allocations at
// the counts the leaf had before its scans started at a per-level rover
// (when each call's start moved one slot past the previous one): the
// rover must not buy its speed with fragmentation.
func TestLockstepHeights(t *testing.T) {
	for _, c := range []struct {
		total, maxSize, seed uint64
		golden               alloc.Stats // k = 1
		maxFails             uint64
	}{
		{16 << 10, 16 << 10, 1, alloc.Stats{Allocs: 22626, Frees: 22626, AllocFails: 14838, RMW: 139362, Retries: 12792}, 14852},
		{1 << 20, 64 << 10, 2, alloc.Stats{Allocs: 24965, Frees: 24965, AllocFails: 12430, RMW: 139792, Retries: 130005}, 12703},
	} {
		cfg := alloc.Config{Total: c.total, MinSize: 8, MaxSize: c.maxSize}
		a1 := mustNew(t, 1, c.total, 8, c.maxSize)
		a4 := mustNew(t, 4, c.total, 8, c.maxSize)
		sl1, sl4 := mustBuild(t, "1lvl-sl", cfg), mustBuild(t, "4lvl-sl", cfg)
		runTape(t, c.seed, 60000, a1, a4, sl1, sl4)
		got := a1.Stats()
		if got != c.golden {
			t.Errorf("total=%d: k=1 stats %+v, want %+v", c.total, got, c.golden)
		}
		if got.AllocFails > c.maxFails {
			t.Errorf("total=%d: %d failed allocations, want at most %d", c.total, got.AllocFails, c.maxFails)
		}
		want := c.golden
		want.RMW, want.CASFail, want.LockAcq = 0, 0, want.Allocs+want.AllocFails+want.Frees
		if got := sl1.Stats(); got != want {
			t.Errorf("total=%d: 1lvl-sl stats %+v, want %+v", c.total, got, want)
		}
		for _, a := range []*Allocator{a1, a4, sl1.(lockedAllocator).Allocator, sl4.(lockedAllocator).Allocator} {
			if i := dirtyWord(a); i >= 0 {
				t.Errorf("total=%d: %s word %d dirty after the tape drained", c.total, a.Name(), i)
			}
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

func mustBuild(t *testing.T, label string, cfg alloc.Config) alloc.Allocator {
	t.Helper()
	a, err := alloc.Build(label, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
