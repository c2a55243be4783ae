package bunch

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/spinlock"
	"repro/internal/status"
)

// newTwin builds a WithoutScatter leaf of 8 B units at bunch height k,
// under the SL discipline when locked, and one handle on it.
func newTwin(t *testing.T, k int, total, maxSize uint64, locked bool) (*Allocator, alloc.Handle) {
	a := mustNew(t, k, total, 8, maxSize, WithoutScatter())
	if !locked {
		return a, a.newHandle()
	}
	a.lock = spinlock.New(spinlock.KindTAS)
	return a, lockedAllocator{a}.NewHandle()
}

// plantLive leaves a tree holding a live 2 KiB chunk at offset 0, a run of
// mixed small chunks after it with two in three freed again, and pending
// coalescing bits on three clear 8 B leaves, as racing releases would
// leave them: scans below the big chunk go through the ancestor pre-check
// and the subtree skip, and a group has to pass over busy and
// coalescing-marked nodes inside its word.
func plantLive(t *testing.T, a *Allocator, h alloc.Handle) {
	if off, ok := h.Alloc(2 << 10); !ok || off != 0 {
		t.Fatalf("%s: 2 KiB alloc = (%#x, %v), want (0, true)", a.Name(), off, ok)
	}
	for i := 0; i < 48; i++ {
		off, ok := h.Alloc(8 << (i % 4))
		if !ok {
			t.Fatalf("%s: small alloc %d failed", a.Name(), i)
		}
		if i%3 != 0 {
			h.Free(off)
		}
	}
	leaves := geometry.FirstOfLevel(a.geo.Depth)
	for _, off := range []uint64{4096 + 8, 4096 + 16, 4096 + 40} {
		word, field, _, _ := a.nodeWord(leaves + off/8)
		word.Store(status.WithField(word.Load(), field, status.CoalRight))
	}
}

// TestAllocBatchEqualsSingles requires AllocBatch(size, n) to do what n
// single Allocs do: the same offsets in the same order, and the same
// words and index entries afterwards. One CAS reserving a bunch's free
// nodes must equal reserving them one at a time with no interleaving.
// Twins run at k = 1 and k = 4, under NB and SL, for every servable
// level, from an empty tree and from one planted by plantLive; each batch
// asks for one chunk more than the level holds, so it also ends short.
// The 64 KiB tree (depth 13, max level 3) materializes levels 13, 9 and
// 5 at k = 4, so its planted 2 KiB chunk sits two materialized levels
// above the 8 B leaves, and levels 3-5 share the top bunch, where a whole
// word is one group. The 1 KiB tree serves its root: at k = 1 levels 0-2
// are narrower than the words they have to themselves, where a group must
// stop at the level's end.
// Stats are not compared: the singles re-hit the same conflicts on every
// call. The group rollback cannot run here, since the pre-check finds
// every occupied ancestor a single goroutine could meet;
// TestConcurrentNoOverlap drives it.
func TestAllocBatchEqualsSingles(t *testing.T) {
	for _, tree := range []struct {
		total, maxSize uint64
		planted        bool
	}{
		{64 << 10, 8 << 10, false},
		{64 << 10, 8 << 10, true},
		{1 << 10, 1 << 10, false},
	} {
		geo, err := geometry.New(tree.total, 8, tree.maxSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range heights {
			for _, locked := range []bool{false, true} {
				for level := geo.MaxLevel; level <= geo.Depth; level++ {
					name := fmt.Sprintf("k=%d locked=%v total=%d planted=%v level=%d", k, locked, tree.total, tree.planted, level)
					ab, hb := newTwin(t, k, tree.total, tree.maxSize, locked)
					as, hs := newTwin(t, k, tree.total, tree.maxSize, locked)
					if tree.planted {
						plantLive(t, ab, hb)
						plantLive(t, as, hs)
					}
					batchEqualsSingles(t, name, level, ab, hb, as, hs)
				}
			}
		}
	}
}

// batchEqualsSingles asks twin ab for one batch of level's chunks and
// twin as for as many single chunks, and compares what they delivered and
// the state they are left in.
func batchEqualsSingles(t *testing.T, name string, level int, ab *Allocator, hb alloc.Handle, as *Allocator, hs alloc.Handle) {
	size := ab.geo.SizeOf(geometry.FirstOfLevel(level))
	n := int(geometry.LevelWidth(level)) + 1
	batch := alloc.HandleAllocBatch(hb, size, n)
	var singles []uint64
	for len(singles) < n {
		off, ok := hs.Alloc(size)
		if !ok {
			break
		}
		singles = append(singles, off)
	}
	if !slices.Equal(batch, singles) {
		t.Fatalf("%s: AllocBatch = %d chunks %#x, %d Allocs = %#x", name, len(batch), batch, len(singles), singles)
	}
	if len(batch) == 0 {
		t.Fatalf("%s: nothing allocated", name)
	}
	if wb, ws := words(ab), words(as); !slices.Equal(wb, ws) {
		t.Fatalf("%s: words differ after the batch: %#x, after the singles %#x", name, wb, ws)
	}
	for i := range ab.index {
		if b, s := ab.index[i].Load(), as.index[i].Load(); b != s {
			t.Fatalf("%s: index slot %d holds %d after the batch, %d after the singles", name, i, b, s)
		}
	}
}
