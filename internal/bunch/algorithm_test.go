package bunch

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/geometry"
	"repro/internal/status"
)

// heights are the bunch heights the package registers: 1lvl-nb and
// 4lvl-nb. The table tests below run every case at each.
var heights = []int{1, geometry.BunchSpan}

func mustNew(t testing.TB, k int, total, minSize, maxSize uint64, opts ...Option) *Allocator {
	t.Helper()
	a, err := newAllocator(fmt.Sprintf("k=%d", k), k, total, minSize, maxSize, opts)
	if err != nil {
		t.Fatalf("k=%d: New(%d,%d,%d): %v", k, total, minSize, maxSize, err)
	}
	return a
}

// nodeStatus returns node n's status: its own field at a materialized
// level, or the status derived from its covered fields at a level
// interior to a bunch (paper Figure 6).
func nodeStatus(a *Allocator, n uint64) uint32 {
	word, field, count, _ := a.nodeWord(n)
	w := word.Load()
	if count == 1 {
		return status.Field(w, field)
	}
	half := count / 2
	var s uint32
	if occ := status.Fill(field, count, status.Occ); w&occ == occ {
		s |= status.Occ
	}
	if status.AnyBusy(w, field, half) {
		s |= status.OccLeft
	}
	if status.AnyBusy(w, field+half, half) {
		s |= status.OccRight
	}
	if w&status.Fill(field, half, status.CoalLeft|status.CoalRight) != 0 {
		s |= status.CoalLeft
	}
	if w&status.Fill(field+half, half, status.CoalLeft|status.CoalRight) != 0 {
		s |= status.CoalRight
	}
	return s
}

// words snapshots the status words.
func words(a *Allocator) []uint64 {
	out := make([]uint64, len(a.words))
	for i := range a.words {
		out[i] = a.words[i].Load()
	}
	return out
}

// dirtyWord returns the index of the first non-zero word, or -1.
func dirtyWord(a *Allocator) int {
	return slices.IndexFunc(words(a), func(w uint64) bool { return w != 0 })
}

// TestInteriorNodeOccupiesCoveredFields pins the §III.D rule: reserving a
// node above a bunch-leaf level writes BUSY into all covered leaf fields
// of one word, atomically.
func TestInteriorNodeOccupiesCoveredFields(t *testing.T) {
	a := mustNew(t, 4, 1024, 8, 1024, WithoutScatter()) // depth 7, materialized {7,3}
	h := a.newHandle()
	off, ok := h.Alloc(256) // level 2: covers leaves 8,9 at level 3
	if !ok || off != 0 {
		t.Fatalf("alloc = (%d,%v)", off, ok)
	}
	word, field, count, lam := a.nodeWord(4)
	if lam != 3 || field != 0 || count != 2 {
		t.Fatalf("nodeWord(4) = field %d count %d lam %d", field, count, lam)
	}
	w := word.Load()
	for j := 0; j < 8; j++ {
		got := status.Field(w, j)
		if j < 2 && got != status.Busy {
			t.Fatalf("covered field %d = %s, want BUSY", j, status.String(got))
		}
		if j >= 2 && got != 0 {
			t.Fatalf("uncovered field %d = %s, want clear", j, status.String(got))
		}
	}
	h.Free(off)
	if w := word.Load(); w != 0 {
		t.Fatalf("word not clear after free: %#x", w)
	}
}

// TestClimbMarksParentBunchLeaf verifies a minimum-size allocation marks
// the materialized ancestor's field (4 levels up) rather than any interior
// node.
func TestClimbMarksParentBunchLeaf(t *testing.T) {
	a := mustNew(t, 4, 1024, 8, 1024, WithoutScatter()) // depth 7
	h := a.newHandle()
	off, ok := h.Alloc(8) // leaf node 128 at level 7
	if !ok || off != 0 {
		t.Fatalf("alloc = (%d,%v)", off, ok)
	}
	// The level-7 word holding leaf 128 must have field 0 BUSY.
	leafWord, f := a.wordOf(128, 7)
	if got := status.Field(leafWord.Load(), f); got != status.Busy {
		t.Fatalf("leaf field = %s", status.String(got))
	}
	// The materialized ancestor is node 8 at level 3 (128 >> 4); the climb
	// came from child 16 (level 4, even = left), so OCC_LEFT must be set.
	ancWord, af := a.wordOf(8, 3)
	if got := status.Field(ancWord.Load(), af); got != status.OccLeft {
		t.Fatalf("ancestor field = %s, want OL", status.String(got))
	}
	h.Free(off)
	if got := status.Field(ancWord.Load(), af); got != 0 {
		t.Fatalf("ancestor field = %s after free", status.String(got))
	}
}

// TestRollbackOnOccupiedAncestor forces the abort path across words.
func TestRollbackOnOccupiedAncestor(t *testing.T) {
	a := mustNew(t, 4, 1024, 8, 1024, WithoutScatter())
	h := a.newHandle()
	half, ok := h.Alloc(512) // node 2 at level 1 -> lam 3, covers 4 fields
	if !ok || half != 0 {
		t.Fatalf("half alloc = (%d,%v)", half, ok)
	}
	small, ok := h.Alloc(8)
	if !ok {
		t.Fatal("small alloc failed")
	}
	if small < 512 {
		t.Fatalf("small alloc at %d under the occupied half", small)
	}
	if h.stats.Retries == 0 {
		t.Fatal("no retry recorded")
	}
	h.Free(small)
	h.Free(half)
	if i := dirtyWord(a); i >= 0 {
		t.Fatalf("word %d dirty after drain: %#x", i, a.words[i].Load())
	}
}

// TestTryAllocRollback forces the abort path of TryAlloc: a free-looking
// leaf under a fully occupied ancestor must be refused (the ancestor
// pre-check names the ancestor before the reservation CAS, where the climb
// would have hit OCC and rolled back), leave no mark behind, and land the
// allocation in the other half.
func TestTryAllocRollback(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1024, 8, 1024, WithoutScatter())
		h := a.newHandle()
		half, ok := h.Alloc(512) // takes node 2 (scatter disabled)
		if !ok || half != 0 {
			t.Fatalf("k=%d: half alloc = (%d,%v), want (0,true)", k, half, ok)
		}
		if !status.IsOcc(nodeStatus(a, 2)) {
			t.Fatalf("k=%d: node 2 not OCC after the 512-byte allocation", k)
		}
		// Leaves under node 2 still look free: occupancy is not propagated
		// downward (paper §III.A), so the scan will pick leaf 128 and
		// tryAlloc must abort on node 2's side.
		if !status.IsFree(nodeStatus(a, 128)) {
			t.Fatalf("k=%d: leaf under an occupied ancestor should look free", k)
		}
		small, ok := h.Alloc(8)
		if !ok {
			t.Fatalf("k=%d: small alloc failed", k)
		}
		if small < 512 {
			t.Fatalf("k=%d: small alloc landed at %d inside the occupied half", k, small)
		}
		if h.stats.Retries == 0 {
			t.Fatalf("k=%d: no retry recorded: the abort path did not trigger", k)
		}
		// Every aborted attempt must leave nothing behind: the words equal
		// their rebuild from the two live chunks.
		before := words(a)
		a.Scrub()
		if after := words(a); !slices.Equal(before, after) {
			t.Fatalf("k=%d: words left dirty after rollback: %#x, rebuilt %#x", k, before, after)
		}
		h.Free(small)
		h.Free(half)
	}
}

// TestSubtreeSkipLandsPastConflict checks the NBALLOC skip arithmetic
// (lines A18-A19): after failing under an occupied ancestor the scan must
// jump directly past the ancestor's subtree rather than probing every
// descendant leaf. The conflict sits at a level both heights materialize
// (depth 9: {9..0} at k = 1, {9,5,1} at k = 4).
func TestSubtreeSkipLandsPastConflict(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1<<12, 8, 1<<12, WithoutScatter())
		h := a.newHandle()
		big, ok := h.Alloc(1 << 11) // occupies node 2: leaves 512..767 covered
		if !ok {
			t.Fatalf("k=%d: big alloc failed", k)
		}
		small, ok := h.Alloc(8)
		if !ok {
			t.Fatalf("k=%d: small alloc failed", k)
		}
		if small < 1<<11 {
			t.Fatalf("k=%d: small alloc at %d overlaps the big chunk", k, small)
		}
		// Exactly one abort: the skip must not retry inside node 2's subtree.
		if h.stats.Retries != 1 {
			t.Fatalf("k=%d: retries = %d, want exactly 1 (subtree skip)", k, h.stats.Retries)
		}
		h.Free(big)
		h.Free(small)
	}
}

// TestCoalescingBitBlocksReservation pins the CAS(0, BUSY) semantics: a
// pending coalescing bit on a node makes its direct reservation fail even
// though the node is not busy (IsFree is true).
func TestCoalescingBitBlocksReservation(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1024, 8, 1024, WithoutScatter())
		h := a.newHandle()
		// Plant a transient coalescing bit on node 2 (as a racing release
		// would between its phase 1 and its unmark).
		word, field, _, _ := a.nodeWord(2)
		word.Store(status.WithField(word.Load(), field, status.CoalLeft))
		if !status.IsFree(nodeStatus(a, 2)) {
			t.Fatalf("k=%d: coal-only node must still be IsFree", k)
		}
		off, ok := h.Alloc(512)
		if !ok {
			t.Fatalf("k=%d: alloc failed entirely", k)
		}
		if off != 512 {
			t.Fatalf("k=%d: alloc took the coalescing-marked node (offset %d), want the sibling at 512", k, off)
		}
		h.Free(off)
	}
}

// TestFreeClimbStopsAtOccupiedBuddy verifies the release climb arrests at
// a fragmented buddy and leaves the parent's occupancy for the buddy
// intact (Figure 4's early-arrest case).
func TestFreeClimbStopsAtOccupiedBuddy(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1024, 8, 1024, WithoutScatter())
		h := a.newHandle()
		left, ok := h.Alloc(512) // node 2 (scan starts at the level base)
		if !ok || left != 0 {
			t.Fatalf("k=%d: left alloc = (%d,%v), want node 2 at offset 0", k, left, ok)
		}
		right, ok := h.Alloc(512)
		if !ok {
			t.Fatalf("k=%d: right alloc failed", k)
		}
		h.Free(left)
		// The root must still show the right branch occupied.
		rootVal := nodeStatus(a, 1)
		occRight := status.IsOccBuddy(rootVal, 2) // buddy of node 2 = node 3
		occLeftGone := !status.IsOccBuddy(rootVal, 3)
		if !occRight || !occLeftGone {
			t.Fatalf("k=%d: root = %s after freeing the left half", k, status.String(rootVal))
		}
		h.Free(right)
		if v := nodeStatus(a, 1); v != 0 {
			t.Fatalf("k=%d: root = %s after freeing both halves", k, status.String(v))
		}
	}
}

// TestIndexReuse verifies index[] slots recycle: the same offset delivered
// again after a free maps to the right node and frees cleanly.
func TestIndexReuse(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1024, 8, 1024, WithoutScatter())
		h := a.newHandle()
		for i := 0; i < 100; i++ {
			off, ok := h.Alloc(64)
			if !ok {
				t.Fatalf("k=%d: alloc failed", k)
			}
			if off != 0 {
				t.Fatalf("k=%d: iteration %d: deterministic first-fit returned %d, want 0", k, i, off)
			}
			h.Free(off)
		}
	}
}

// TestScatterSpreadsStarts verifies distinct handles begin scanning at
// distinct slots (the §III.B refinement) while the no-scatter option pins
// them all to the level start.
func TestScatterSpreadsStarts(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1<<16, 8, 1<<16)
		starts := map[uint64]bool{}
		for i := 0; i < 16; i++ {
			starts[a.newHandle().start(10)] = true
		}
		if len(starts) < 12 {
			t.Fatalf("k=%d: 16 handles share %d distinct scan starts; want well spread", k, len(starts))
		}
		b := mustNew(t, k, 1<<16, 8, 1<<16, WithoutScatter())
		for i := 0; i < 4; i++ {
			if b.newHandle().start(10) != geometry.FirstOfLevel(10) {
				t.Fatalf("k=%d: no-scatter handle does not start at the level's first node", k)
			}
		}
	}
}

// TestConcurrentExhaustion injects allocation failure under concurrency:
// with capacity for exactly N live max-size chunks, more than N workers
// fighting for them must see exactly N successes at any instant and no
// corruption after all release.
func TestConcurrentExhaustion(t *testing.T) {
	const capacity = 4
	for _, k := range heights {
		a := mustNew(t, k, capacity*(1<<10), 8, 1<<10)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := a.NewHandle()
				for i := 0; i < 5000; i++ {
					if off, ok := h.Alloc(1 << 10); ok {
						h.Free(off)
					}
				}
			}()
		}
		wg.Wait()
		// All workers drained; the instance must again hold exactly 4 chunks.
		var offs []uint64
		for {
			off, ok := a.Alloc(1 << 10)
			if !ok {
				break
			}
			offs = append(offs, off)
		}
		if len(offs) != capacity {
			t.Fatalf("k=%d: capacity after churn = %d chunks, want %d", k, len(offs), capacity)
		}
		for _, off := range offs {
			a.Free(off)
		}
	}
}

// TestFreeUnalignedPanics exercises the misuse guards of NBFREE.
func TestFreeUnalignedPanics(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1024, 8, 1024)
		for _, off := range []uint64{3, 1025, 1 << 40} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("k=%d: Free(%d) did not panic", k, off)
					}
				}()
				a.Free(off)
			}()
		}
	}
}

// TestAllDepthResidues exercises every depth mod 4 (partial top bunches,
// single-node trees) with a fill/drain/refill cycle.
func TestAllDepthResidues(t *testing.T) {
	for _, k := range heights {
		for depth := 0; depth <= 9; depth++ {
			total := uint64(8) << depth
			a := mustNew(t, k, total, 8, total)
			var offs []uint64
			for {
				off, ok := a.Alloc(8)
				if !ok {
					break
				}
				offs = append(offs, off)
			}
			if len(offs) != 1<<depth {
				t.Fatalf("k=%d depth %d: filled %d units, want %d", k, depth, len(offs), 1<<depth)
			}
			for _, off := range offs {
				a.Free(off)
			}
			if off, ok := a.Alloc(total); !ok || off != 0 {
				t.Fatalf("k=%d depth %d: whole-region alloc after drain = (%d,%v)", k, depth, off, ok)
			}
			a.Free(0)
		}
	}
}

// TestDerivedArrest pins the in-word buddy derivation used by release
// climbs: occupied-and-not-coalescing buddy halves arrest, coalescing ones
// do not, and at k = 1 (one-lane bunches) nothing is derived.
func TestDerivedArrest(t *testing.T) {
	// Field 1 busy, buddy of field 0 at the bottom derived level.
	w := status.WithField(0, 1, status.Occ)
	if !derivedArrest(w, 0, 1, 8) {
		t.Fatal("busy sibling field must arrest")
	}
	// At k = 1 the neighbouring lane is another bunch, not a buddy.
	if derivedArrest(w, 0, 1, 1) {
		t.Fatal("one-lane bunch arrested against a neighbouring bunch")
	}
	// Same, but the buddy is also coalescing: must not arrest.
	w = status.WithField(0, 1, status.Occ|status.CoalLeft)
	if derivedArrest(w, 0, 1, 8) {
		t.Fatal("coalescing buddy must not arrest")
	}
	// Busy cousin two levels up: fields 4..7 half against 0..3.
	w = status.WithField(0, 6, status.OccRight)
	if !derivedArrest(w, 0, 2, 8) {
		t.Fatal("busy upper half must arrest a climb from the lower quarter")
	}
	// Clean word never arrests.
	if derivedArrest(0, 3, 1, 8) {
		t.Fatal("clean word arrested")
	}
	// A node covering the whole word has no in-word buddies.
	if derivedArrest(status.Fill(0, 8, status.Busy), 0, 8, 8) {
		t.Fatal("whole-word node cannot arrest against itself")
	}
}

// TestGeometryAgreement cross-checks nodeWord against the geometry
// package over the whole tree.
func TestGeometryAgreement(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1<<13, 8, 1<<13) // depth 10, materialized {10,6,2} at k=4
		for n := uint64(1); n < a.geo.Nodes(); n++ {
			_, field, count, lam := a.nodeWord(n)
			if want := a.geo.LeafLevelFor(geometry.LevelOf(n), k); lam != want {
				t.Fatalf("k=%d node %d: lam=%d want %d", k, n, lam, want)
			}
			first, cnt := a.geo.CoveredLeaves(n, k)
			if cnt != count {
				t.Fatalf("k=%d node %d: count=%d want %d", k, n, count, cnt)
			}
			if f := int(first & 7); f != field {
				t.Fatalf("k=%d node %d: field=%d want %d", k, n, field, f)
			}
		}
		if got, want := uint64(len(a.words)), a.geo.Words(k); got != want {
			t.Fatalf("k=%d: %d words, geometry says %d", k, got, want)
		}
	}
}
