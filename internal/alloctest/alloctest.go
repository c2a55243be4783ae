// Package alloctest is a reusable conformance suite run against every
// allocator variant of the evaluation. It checks the paper's safety
// properties — S1: a successful allocation returns a non-allocated chunk
// coherent with the requested size; S2: a free releases exactly the memory
// targeted — plus buddy-system behaviours (alignment, split/coalesce,
// exhaustion, misuse detection) both sequentially and under concurrency.
package alloctest

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/alloc"
)

// Run executes the full conformance suite against the registered allocator
// variant with the given evaluation label.
func Run(t *testing.T, name string) {
	t.Helper()
	RunBuilder(t, func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator {
		t.Helper()
		a, err := alloc.Build(name, alloc.Config{Total: total, MinSize: minSize, MaxSize: maxSize})
		if err != nil {
			t.Fatalf("Build(%q): %v", name, err)
		}
		return a
	})
}

// Builder constructs an allocator for one conformance sub-test. The
// returned allocator's global offset space must be [0, total) — composed
// stacks (multi routers, caching front-ends, slabs) qualify as long as
// their instance spans multiply out to total.
type Builder = func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator

// RunBuilder executes the full conformance suite against allocators the
// builder constructs — the entry point for composed layer stacks, which
// have no registry label of their own.
func RunBuilder(t *testing.T, build Builder) {
	t.Helper()

	t.Run("FillDrainRefill", func(t *testing.T) { testFillDrainRefill(t, build) })
	t.Run("Alignment", func(t *testing.T) { testAlignment(t, build) })
	t.Run("SplitCoalesce", func(t *testing.T) { testSplitCoalesce(t, build) })
	t.Run("MixedSizesNoOverlap", func(t *testing.T) { testMixedSizesNoOverlap(t, build) })
	t.Run("SizeRounding", func(t *testing.T) { testSizeRounding(t, build) })
	t.Run("Oversize", func(t *testing.T) { testOversize(t, build) })
	t.Run("ZeroSize", func(t *testing.T) { testZeroSize(t, build) })
	t.Run("EmptyBatch", func(t *testing.T) { testEmptyBatch(t, build) })
	t.Run("DoubleFreePanics", func(t *testing.T) { testDoubleFreePanics(t, build) })
	t.Run("ForeignFreePanics", func(t *testing.T) { testForeignFreePanics(t, build) })
	t.Run("MinimalGeometry", func(t *testing.T) { testMinimalGeometry(t, build) })
	t.Run("MaxLevelRestriction", func(t *testing.T) { testMaxLevelRestriction(t, build) })
	t.Run("RandomSequentialVsShadow", func(t *testing.T) { testRandomSequentialVsShadow(t, build) })
	t.Run("QuickOpSequences", func(t *testing.T) { testQuickOpSequences(t, build) })
	t.Run("ConcurrentNoOverlap", func(t *testing.T) { testConcurrentNoOverlap(t, build) })
	t.Run("ConcurrentChurnDrain", func(t *testing.T) { testConcurrentChurnDrain(t, build) })
	t.Run("ConcurrentMixedLevels", func(t *testing.T) { testConcurrentMixedLevels(t, build) })
	t.Run("StatsAccounting", func(t *testing.T) { testStatsAccounting(t, build) })
}

// mustAllocAfterDrain asserts that size is allocatable on a (supposedly)
// fully drained instance. Non-blocking allocators are permitted one Scrub
// to shed benign residue first; an allocator without Scrub must succeed
// directly, and a failure after scrubbing is a real coalescing bug either
// way. The chunk is freed again before returning.
func mustAllocAfterDrain(t *testing.T, a alloc.Allocator, size uint64, context string) {
	t.Helper()
	off, ok := a.Alloc(size)
	if !ok {
		s, canScrub := a.(alloc.Scrubber)
		if !canScrub {
			t.Fatalf("%s: alloc(%d) failed after drain", context, size)
		}
		s.Scrub()
		if off, ok = a.Alloc(size); !ok {
			t.Fatalf("%s: alloc(%d) failed after drain even after Scrub", context, size)
		}
	}
	a.Free(off)
}

func testFillDrainRefill(t *testing.T, build Builder) {
	a := build(t, 4096, 8, 4096)
	var offs []uint64
	seen := map[uint64]bool{}
	for {
		off, ok := a.Alloc(8)
		if !ok {
			break
		}
		if seen[off] {
			t.Fatalf("offset %d delivered twice", off)
		}
		seen[off] = true
		offs = append(offs, off)
	}
	if len(offs) != 512 {
		t.Fatalf("filled %d units, want 512", len(offs))
	}
	for _, off := range offs {
		a.Free(off)
	}
	if off, ok := a.Alloc(4096); !ok || off != 0 {
		t.Fatalf("whole-region alloc after drain = (%d,%v), want (0,true)", off, ok)
	}
	a.Free(0)
}

func testAlignment(t *testing.T, build Builder) {
	a := build(t, 1<<16, 8, 1<<16)
	for _, size := range []uint64{8, 16, 64, 512, 4096, 1 << 14} {
		off, ok := a.Alloc(size)
		if !ok {
			t.Fatalf("alloc(%d) failed on a fresh region slice", size)
		}
		if off%size != 0 {
			t.Errorf("alloc(%d) returned offset %d, not size-aligned (axiom AX2)", size, off)
		}
		if off+size > 1<<16 {
			t.Errorf("alloc(%d) = %d overruns the region", size, off)
		}
		a.Free(off)
	}
}

func testSplitCoalesce(t *testing.T, build Builder) {
	a := build(t, 1024, 8, 1024)
	small, ok := a.Alloc(8)
	if !ok {
		t.Fatal("small alloc failed")
	}
	big, ok := a.Alloc(512)
	if !ok {
		t.Fatal("half-region alloc failed alongside an 8-byte chunk")
	}
	if (small < 512) == (big < 512) {
		t.Fatalf("small (%d) and big (%d) landed in the same half", small, big)
	}
	if _, ok := a.Alloc(1024); ok {
		t.Fatal("whole-region alloc succeeded while fragmented")
	}
	a.Free(small)
	a.Free(big)
	if _, ok := a.Alloc(1024); !ok {
		t.Fatal("whole-region alloc failed after frees: buddies did not coalesce")
	}
}

func testMixedSizesNoOverlap(t *testing.T, build Builder) {
	a := build(t, 1<<16, 8, 1<<13)
	type chunk struct{ off, size uint64 }
	var live []chunk
	for _, size := range []uint64{8, 8, 128, 1024, 8192, 64, 64, 2048, 8, 512} {
		off, ok := a.Alloc(size)
		if !ok {
			t.Fatalf("alloc(%d) failed", size)
		}
		for _, c := range live {
			if off < c.off+c.size && c.off < off+size {
				t.Fatalf("chunk [%d,%d) overlaps live chunk [%d,%d)", off, off+size, c.off, c.off+c.size)
			}
		}
		live = append(live, chunk{off, size})
	}
	for _, c := range live {
		a.Free(c.off)
	}
}

func testSizeRounding(t *testing.T, build Builder) {
	a := build(t, 1024, 8, 1024)
	// A 3-byte request must consume a full allocation unit.
	off1, ok1 := a.Alloc(3)
	off2, ok2 := a.Alloc(5)
	if !ok1 || !ok2 {
		t.Fatal("sub-unit allocs failed")
	}
	if off1 == off2 {
		t.Fatal("two sub-unit allocs shared one unit")
	}
	a.Free(off1)
	a.Free(off2)
	// A 9-byte request rounds to 16.
	o1, _ := a.Alloc(9)
	o2, ok := a.Alloc(9)
	if !ok {
		t.Fatal("second 9-byte alloc failed")
	}
	if d := diff(o1, o2); d < 16 {
		t.Fatalf("9-byte chunks only %d apart; rounding to 16 not honoured", d)
	}
	a.Free(o1)
	a.Free(o2)
}

func testOversize(t *testing.T, build Builder) {
	a := build(t, 1024, 8, 512)
	if _, ok := a.Alloc(513); ok {
		t.Fatal("alloc above MaxSize succeeded")
	}
	if _, ok := a.Alloc(1 << 40); ok {
		t.Fatal("absurd alloc succeeded")
	}
}

func testZeroSize(t *testing.T, build Builder) {
	a := build(t, 1024, 8, 1024)
	off, ok := a.Alloc(0)
	if !ok {
		t.Fatal("zero-size alloc failed; it should round to one allocation unit")
	}
	a.Free(off)
}

// testEmptyBatch: a batch request for no chunks (n <= 0) is not an
// allocation attempt, whatever the size — it returns nil and counts
// nothing, at the handle and at the allocator, exactly like an empty
// FreeBatch.
func testEmptyBatch(t *testing.T, build Builder) {
	a := build(t, 1024, 8, 512)
	h := a.NewHandle()
	before, hBefore := a.Stats(), *h.Stats()
	for _, size := range []uint64{64, 513} {
		for _, n := range []int{0, -1} {
			if out := alloc.HandleAllocBatch(h, size, n); out != nil {
				t.Errorf("handle AllocBatch(%d, %d) = %v, want nil", size, n, out)
			}
			if out := alloc.AllocBatchOf(a, size, n); out != nil {
				t.Errorf("AllocBatch(%d, %d) = %v, want nil", size, n, out)
			}
		}
	}
	if got := *h.Stats(); got != hBefore {
		t.Errorf("handle stats moved on empty batches: %+v, was %+v", got, hBefore)
	}
	if got := a.Stats(); got != before {
		t.Errorf("allocator stats moved on empty batches: %+v, was %+v", got, before)
	}
}

func testDoubleFreePanics(t *testing.T, build Builder) {
	a := build(t, 1024, 8, 1024)
	off, ok := a.Alloc(64)
	if !ok {
		t.Fatal("alloc failed")
	}
	a.Free(off)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(off)
}

func testForeignFreePanics(t *testing.T, build Builder) {
	a := build(t, 1024, 8, 1024)
	defer func() {
		if recover() == nil {
			t.Error("free of a never-allocated offset did not panic")
		}
	}()
	a.Free(512)
}

func testMinimalGeometry(t *testing.T, build Builder) {
	// A degenerate instance: one allocation unit, depth 0.
	a := build(t, 64, 64, 64)
	off, ok := a.Alloc(64)
	if !ok || off != 0 {
		t.Fatalf("single-unit alloc = (%d,%v), want (0,true)", off, ok)
	}
	if _, ok := a.Alloc(64); ok {
		t.Fatal("second alloc on a single-unit instance succeeded")
	}
	a.Free(0)
	if _, ok := a.Alloc(64); !ok {
		t.Fatal("re-alloc after free failed")
	}
}

func testMaxLevelRestriction(t *testing.T, build Builder) {
	// MaxSize below Total: requests up to MaxSize succeed, nothing larger.
	a := build(t, 1<<12, 8, 1<<10)
	var offs []uint64
	for i := 0; i < 4; i++ {
		off, ok := a.Alloc(1 << 10)
		if !ok {
			t.Fatalf("max-size alloc %d failed", i)
		}
		offs = append(offs, off)
	}
	if _, ok := a.Alloc(1 << 10); ok {
		t.Fatal("fifth max-size alloc succeeded beyond capacity")
	}
	for _, off := range offs {
		a.Free(off)
	}
}

// testRandomSequentialVsShadow drives a long random alloc/free sequence and
// validates every response against a shadow interval set (S1 and S2 from a
// single thread, exercising deep split/merge interleavings).
func testRandomSequentialVsShadow(t *testing.T, build Builder) {
	const total, minSize, maxSize = 1 << 14, 8, 1 << 11
	a := build(t, total, minSize, maxSize)
	geo := a.Geometry()
	rng := rand.New(rand.NewSource(42))
	type chunk struct{ off, reserved uint64 }
	var live []chunk
	occupied := map[uint64]bool{} // unit index -> taken
	for step := 0; step < 20000; step++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(live))
			c := live[k]
			a.Free(c.off)
			for u := c.off / minSize; u < (c.off+c.reserved)/minSize; u++ {
				if !occupied[u] {
					t.Fatalf("step %d: unit %d freed twice", step, u)
				}
				delete(occupied, u)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := uint64(1) << (3 + rng.Intn(9)) // 8..2048
		off, ok := a.Alloc(size)
		if !ok {
			continue
		}
		reserved := geo.SizeOfLevel(geo.LevelForSize(size))
		if off%reserved != 0 || off+reserved > total {
			t.Fatalf("step %d: alloc(%d) -> [%d,%d) misaligned or out of range", step, size, off, off+reserved)
		}
		for u := off / minSize; u < (off+reserved)/minSize; u++ {
			if occupied[u] {
				t.Fatalf("step %d: alloc(%d) at %d overlaps live unit %d (S1 violated)", step, size, off, u)
			}
			occupied[u] = true
		}
		live = append(live, chunk{off, reserved})
	}
	for _, c := range live {
		a.Free(c.off)
	}
	if _, ok := a.Alloc(maxSize); !ok {
		t.Fatal("max-size alloc failed after full drain")
	}
}

// testQuickOpSequences drives testing/quick-generated operation sequences
// through a fresh instance, checking the buddy-system postconditions of
// every response: alignment to the reserved size, containment in the
// region, no overlap with live chunks, and a clean full-capacity state
// after draining. Each generated byte encodes one operation: high bit set
// frees the n-th live chunk, otherwise allocates one of 8 size classes.
func testQuickOpSequences(t *testing.T, build Builder) {
	const total, minSize, maxSize = 1 << 13, 8, 1 << 11
	property := func(script []byte) bool {
		a := build(t, total, minSize, maxSize)
		geo := a.Geometry()
		type chunk struct{ off, reserved uint64 }
		var live []chunk
		for _, op := range script {
			if op&0x80 != 0 && len(live) > 0 {
				k := int(op&0x7f) % len(live)
				a.Free(live[k].off)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			size := uint64(minSize) << (op & 7)
			off, ok := a.Alloc(size)
			if !ok {
				continue
			}
			reserved := geo.SizeOfLevel(geo.LevelForSize(size))
			if off%reserved != 0 || off+reserved > total {
				return false
			}
			for _, c := range live {
				if off < c.off+c.reserved && c.off < off+reserved {
					return false
				}
			}
			live = append(live, chunk{off, reserved})
		}
		for _, c := range live {
			a.Free(c.off)
		}
		off, ok := a.Alloc(maxSize)
		if !ok {
			return false
		}
		a.Free(off)
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// testConcurrentNoOverlap hammers one instance from many goroutines while a
// shared per-unit claim map (atomics on the test side only) asserts that no
// two live allocations ever overlap — the concurrent version of S1/S2.
func testConcurrentNoOverlap(t *testing.T, build Builder) {
	const total, minSize, maxSize = 1 << 20, 8, 1 << 14
	workers := 8
	if testing.Short() {
		workers = 4
	}
	a := build(t, total, minSize, maxSize)
	geo := a.Geometry()
	claims := make([]atomic.Int32, total/minSize)
	var overlaps atomic.Int64

	claim := func(off, reserved uint64, delta int32) {
		for u := off / minSize; u < (off+reserved)/minSize; u++ {
			if v := claims[u].Add(delta); v != 0 && v != 1 {
				overlaps.Add(1)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := a.NewHandle()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			type chunk struct{ off, reserved uint64 }
			var live []chunk
			for i := 0; i < 30000; i++ {
				if len(live) > 0 && rng.Intn(5) < 2 {
					k := rng.Intn(len(live))
					c := live[k]
					claim(c.off, c.reserved, -1)
					h.Free(c.off)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				size := uint64(1) << (3 + rng.Intn(12)) // 8..16K
				off, ok := h.Alloc(size)
				if !ok {
					continue
				}
				reserved := geo.SizeOfLevel(geo.LevelForSize(size))
				claim(off, reserved, 1)
				live = append(live, chunk{off, reserved})
			}
			for _, c := range live {
				claim(c.off, c.reserved, -1)
				h.Free(c.off)
			}
		}()
	}
	wg.Wait()
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping-claim events observed (S1/S2 violated)", n)
	}
	for u := range claims {
		if v := claims[u].Load(); v != 0 {
			t.Fatalf("unit %d left with claim count %d after drain", u, v)
		}
	}
	mustAllocAfterDrain(t, a, maxSize, "concurrent no-overlap")
}

// testConcurrentChurnDrain runs an alloc/free ping-pong (the Linux
// Scalability pattern) concurrently and verifies the instance coalesces
// back to a fully allocatable state.
func testConcurrentChurnDrain(t *testing.T, build Builder) {
	const total = 1 << 18
	a := build(t, total, 8, total)
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := a.NewHandle()
			for i := 0; i < iters; i++ {
				if off, ok := h.Alloc(64); ok {
					h.Free(off)
				}
			}
		}()
	}
	wg.Wait()
	mustAllocAfterDrain(t, a, total, "concurrent churn")
}

// testConcurrentMixedLevels spreads workers over different target levels so
// climbs constantly cross each other mid-tree, the scenario the coalescing
// bits exist for.
func testConcurrentMixedLevels(t *testing.T, build Builder) {
	const total = 1 << 18
	a := build(t, total, 8, 1<<13)
	sizes := []uint64{8, 64, 512, 4096, 1 << 13}
	iters := 10000
	if testing.Short() {
		iters = 2000
	}
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := a.NewHandle()
			size := sizes[w%len(sizes)]
			var live []uint64
			for i := 0; i < iters; i++ {
				if off, ok := h.Alloc(size); ok {
					live = append(live, off)
				}
				if len(live) > 8 {
					h.Free(live[0])
					live = live[1:]
				}
			}
			for _, off := range live {
				h.Free(off)
			}
		}()
	}
	wg.Wait()
	mustAllocAfterDrain(t, a, 1<<13, "mixed-level churn")
}

func testStatsAccounting(t *testing.T, build Builder) {
	a := build(t, 1<<12, 8, 1<<12)
	h := a.NewHandle()
	const n = 100
	for i := 0; i < n; i++ {
		off, ok := h.Alloc(8)
		if !ok {
			t.Fatal("alloc failed")
		}
		h.Free(off)
	}
	s := h.Stats()
	if s.Allocs != n || s.Frees != n {
		t.Fatalf("handle stats = %d allocs/%d frees, want %d/%d", s.Allocs, s.Frees, n, n)
	}
	agg := a.Stats()
	if agg.Allocs < n {
		t.Fatalf("aggregated stats lost handle counts: %d allocs", agg.Allocs)
	}
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
