package bunch

import (
	"testing"

	"repro/internal/geometry"
)

// Each inspection test runs at both registered heights: the plain name at
// 4lvl-nb, the 1Lvl suffix at 1lvl-nb (as TestConformance/TestConformance1Lvl).

func TestScrubPreservesLiveAllocations(t *testing.T) {
	testScrubPreservesLiveAllocations(t, geometry.BunchSpan)
}

func TestScrubPreservesLiveAllocations1Lvl(t *testing.T) {
	testScrubPreservesLiveAllocations(t, 1)
}

func TestLiveNodesAndFreeBytes(t *testing.T) { testLiveNodesAndFreeBytes(t, geometry.BunchSpan) }

func TestLiveNodesAndFreeBytes1Lvl(t *testing.T) { testLiveNodesAndFreeBytes(t, 1) }

func TestOccupancyByLevel(t *testing.T) { testOccupancyByLevel(t, geometry.BunchSpan) }

func TestOccupancyByLevel1Lvl(t *testing.T) { testOccupancyByLevel(t, 1) }

func TestChunkSizeMisuse(t *testing.T) { testChunkSizeMisuse(t, geometry.BunchSpan) }

func TestChunkSizeMisuse1Lvl(t *testing.T) { testChunkSizeMisuse(t, 1) }

func testScrubPreservesLiveAllocations(t *testing.T, k int) {
	a := mustNew(t, k, 1<<12, 8, 1<<12)
	h := a.newHandle()
	off1, _ := h.Alloc(64)
	off2, _ := h.Alloc(1024)
	a.Scrub()
	// Live chunks survive a scrub: sizes still resolvable, frees clean.
	if got := a.ChunkSize(off1); got != 64 {
		t.Fatalf("k=%d: ChunkSize after scrub = %d, want 64", k, got)
	}
	if got := a.ChunkSize(off2); got != 1024 {
		t.Fatalf("k=%d: ChunkSize after scrub = %d, want 1024", k, got)
	}
	// The scrubbed metadata still excludes the live chunks: a full-region
	// allocation must fail, the remaining space must still be usable.
	if _, ok := h.Alloc(1 << 12); ok {
		t.Fatalf("k=%d: whole-region alloc succeeded over live chunks after scrub", k)
	}
	// With 1088 live bytes at most two of the four 1K quarters can be
	// touched, so a 1K chunk is guaranteed allocatable wherever the live
	// chunks landed.
	if off, ok := h.Alloc(1024); !ok {
		t.Fatalf("k=%d: free quarter not allocatable after scrub", k)
	} else {
		h.Free(off)
	}
	h.Free(off1)
	h.Free(off2)
}

func testLiveNodesAndFreeBytes(t *testing.T, k int) {
	a := mustNew(t, k, 1<<12, 8, 1<<12)
	h := a.newHandle()
	if a.LiveNodes() != 0 || a.FreeBytes() != 1<<12 {
		t.Fatalf("k=%d: fresh instance: live=%d free=%d", k, a.LiveNodes(), a.FreeBytes())
	}
	off1, _ := h.Alloc(100) // reserves 128
	off2, _ := h.Alloc(8)
	if a.LiveNodes() != 2 {
		t.Fatalf("k=%d: LiveNodes = %d, want 2", k, a.LiveNodes())
	}
	if got := a.FreeBytes(); got != 1<<12-128-8 {
		t.Fatalf("k=%d: FreeBytes = %d, want %d", k, got, 1<<12-128-8)
	}
	h.Free(off1)
	h.Free(off2)
	if a.LiveNodes() != 0 || a.FreeBytes() != 1<<12 {
		t.Fatalf("k=%d: after drain: live=%d free=%d", k, a.LiveNodes(), a.FreeBytes())
	}
}

func testOccupancyByLevel(t *testing.T, k int) {
	a := mustNew(t, k, 1<<12, 8, 1<<12) // depth 9
	h := a.newHandle()
	off1, _ := h.Alloc(8)    // level 9
	off2, _ := h.Alloc(8)    // level 9
	off3, _ := h.Alloc(1024) // level 2
	counts := a.OccupancyByLevel()
	if counts[9] != 2 || counts[2] != 1 {
		t.Fatalf("k=%d: OccupancyByLevel = %v", k, counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("k=%d: total occupied nodes = %d, want 3", k, total)
	}
	h.Free(off1)
	h.Free(off2)
	h.Free(off3)
}

func testChunkSizeMisuse(t *testing.T, k int) {
	a := mustNew(t, k, 1<<12, 8, 1<<12)
	for _, f := range []func(){
		func() { a.ChunkSize(3) },       // unaligned
		func() { a.ChunkSize(1 << 13) }, // out of range
		func() { a.ChunkSize(8) },       // not allocated
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d: ChunkSize misuse did not panic", k)
				}
			}()
			f()
		}()
	}
}
