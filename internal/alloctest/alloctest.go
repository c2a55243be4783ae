// Package alloctest is a reusable conformance suite run against every
// allocator variant of the evaluation. It checks the paper's safety
// properties — S1: a successful allocation returns a non-allocated chunk
// coherent with the requested size; S2: a free releases exactly the memory
// targeted — plus buddy-system behaviours (alignment, split/coalesce,
// exhaustion, misuse detection, batch and stats accounting).
//
// The suite's own cases are fixed tapes. Random operations come from
// internal/verify's two runners: the three Concurrent cases are
// verify.Stress configurations, and RunDifferential walks verify.Oracle;
// every variant and stack that runs the suite also runs RunDifferential
// in a Differential test of its own.
package alloctest

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/verify"
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
	t.Run("ShortBatch", func(t *testing.T) { testShortBatch(t, build) })
	t.Run("DoubleFreePanics", func(t *testing.T) { testDoubleFreePanics(t, build) })
	t.Run("ForeignFreePanics", func(t *testing.T) { testForeignFreePanics(t, build) })
	t.Run("MinimalGeometry", func(t *testing.T) { testMinimalGeometry(t, build) })
	t.Run("MaxLevelRestriction", func(t *testing.T) { testMaxLevelRestriction(t, build) })
	// ConcurrentNoOverlap hammers one stack with a random mix of every
	// power-of-two size from many workers: the concurrent S1/S2 net.
	t.Run("ConcurrentNoOverlap", func(t *testing.T) {
		stress(t, build, 1<<20, 1<<14, verify.StressConfig{
			Workers: shortOr(8, 4), Ops: 30000, FreeBias: 40, Seed: 7,
			Sizes: []uint64{8, 16, 32, 64, 128, 256, 512, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14},
		})
	})
	// ConcurrentChurnDrain is the Linux Scalability ping-pong: each worker
	// frees every chunk right after allocating it.
	t.Run("ConcurrentChurnDrain", func(t *testing.T) {
		stress(t, build, 1<<18, 1<<18, verify.StressConfig{
			Workers: 8, Ops: shortOr(20000, 4000), MaxLive: 1, Seed: 1, Sizes: []uint64{64},
		})
	})
	// ConcurrentMixedLevels keeps a few chunks of sizes far apart live per
	// worker, so climbs constantly cross each other mid-tree, the
	// scenario the coalescing bits exist for.
	t.Run("ConcurrentMixedLevels", func(t *testing.T) {
		stress(t, build, 1<<18, 1<<13, verify.StressConfig{
			Workers: 10, Ops: shortOr(10000, 2000), MaxLive: 8, Seed: 3,
			Sizes: []uint64{8, 64, 512, 4096, 1 << 13},
		})
	})
	t.Run("StatsAccounting", func(t *testing.T) { testStatsAccounting(t, build) })
}

// RunDifferential runs verify.Oracle's random walk (4000 steps, 800 in
// -short), drain and reconcile over three seeds of a 64 KiB stack built by
// build. The first divergence fails the test with its seed, step and
// operation.
func RunDifferential(t *testing.T, build Builder) {
	t.Helper()
	const total, minSize, maxSize = 1 << 16, 8, 1 << 12
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for _, seed := range []int64{1, 7, 42} {
		o := verify.NewOracle(build(t, total, minSize, maxSize), func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
		})
		o.Walk(rand.NewSource(seed), steps)
		o.Drain()
		o.Reconcile()
	}
}

// stress runs one verify.Stress configuration over a stack of total
// bytes with an 8-byte unit, then asserts that the drained stack serves a
// maxSize chunk again, after one Scrub at most (verify.ServesAfterDrain):
// a failure is a real coalescing bug.
func stress(t *testing.T, build Builder, total, maxSize uint64, cfg verify.StressConfig) {
	t.Helper()
	a := build(t, total, 8, maxSize)
	rep, err := verify.Stress(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatal(rep)
	}
	if !verify.ServesAfterDrain(a, maxSize) {
		t.Fatalf("alloc(%d) failed after drain and Scrub", maxSize)
	}
}

// shortOr returns n, or short under -short.
func shortOr(n, short int) int {
	if testing.Short() {
		return short
	}
	return n
}

func testFillDrainRefill(t *testing.T, build Builder) {
	a := build(t, 4096, 8, 4096)
	o := verify.NewOracle(a, t.Fatalf)
	for off, ok := a.Alloc(8); ok; off, ok = a.Alloc(8) {
		o.Admit(off, 8, "Alloc")
	}
	if o.Live() != 512 {
		t.Fatalf("filled %d units, want 512", o.Live())
	}
	o.ReleaseAll(a.Free)
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
	o := verify.NewOracle(a, t.Fatalf)
	for _, size := range []uint64{8, 8, 128, 1024, 8192, 64, 64, 2048, 8, 512} {
		off, ok := a.Alloc(size)
		if !ok {
			t.Fatalf("alloc(%d) failed", size)
		}
		o.Admit(off, size, "Alloc")
	}
	o.ReleaseAll(a.Free)
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
	if d := max(o1, o2) - min(o1, o2); d < 16 {
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

// testShortBatch pins the AllocFail rule of the bulk contract: a batch
// that delivers some but not all of its chunks is a success, and only an
// empty one counts as a failed allocation. A handle without native
// batching goes through the chunk-at-a-time shim, whose short batch ends
// with a failed Alloc and so counts one.
func testShortBatch(t *testing.T, build Builder) {
	const total, size = 1 << 12, 8
	a := build(t, total, size, total)
	h := a.NewHandle()
	short := uint64(1)
	if _, native := h.(alloc.BatchHandle); native {
		short = 0
	}
	fails := h.Stats().AllocFails
	got := alloc.HandleAllocBatch(h, size, total/size+1)
	if len(got) == 0 || len(got) > total/size {
		t.Fatalf("AllocBatch(%d, %d) on a fresh stack delivered %d chunks", size, total/size+1, len(got))
	}
	if d := h.Stats().AllocFails - fails; d != short {
		t.Errorf("short batch of %d chunks counted %d AllocFails, want %d", len(got), d, short)
	}
	fails = h.Stats().AllocFails
	if more := alloc.HandleAllocBatch(h, size, 4); len(more) != 0 {
		t.Fatalf("AllocBatch on a full stack delivered %d chunks", len(more))
	}
	if d := h.Stats().AllocFails - fails; d != 1 {
		t.Errorf("empty batch counted %d AllocFails, want 1", d)
	}
	alloc.HandleFreeBatch(h, got)
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

// testStatsAccounting drives alloc/free pairs through a handle and
// through the allocator's own thread-safe path: the handle counts its
// own, and the allocator's Stats count both.
func testStatsAccounting(t *testing.T, build Builder) {
	a := build(t, 1<<12, 8, 1<<12)
	h := a.NewHandle()
	const n = 100
	for i := 0; i < n; i++ {
		off, ok := h.Alloc(8)
		if !ok {
			t.Fatal("handle alloc failed")
		}
		h.Free(off)
		if off, ok = a.Alloc(8); !ok {
			t.Fatal("alloc failed")
		}
		a.Free(off)
	}
	s := h.Stats()
	if s.Allocs != n || s.Frees != n {
		t.Fatalf("handle stats = %d allocs/%d frees, want %d/%d", s.Allocs, s.Frees, n, n)
	}
	if agg := a.Stats(); agg.Allocs != 2*n || agg.Frees != 2*n {
		t.Fatalf("aggregated stats = %d allocs/%d frees, want %d/%d", agg.Allocs, agg.Frees, 2*n, 2*n)
	}
}
