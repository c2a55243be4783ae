package bunch

import (
	"math/bits"
	"testing"

	"repro/internal/geometry"
)

// TestIndexSlotBijection checks the tree-ordered index at every depth up
// to 20: the units of a tree with 1<<depth leaves get distinct slots below
// 1<<depth, and a chunk head at level l (a unit with at least depth-l
// trailing zeros) gets a slot below FirstOfLevel(l).
func TestIndexSlotBijection(t *testing.T) {
	for depth := 0; depth <= 20; depth++ {
		leaves := uint64(1) << depth
		seen := make([]bool, leaves)
		for u := uint64(0); u < leaves; u++ {
			s := treeSlot(u, leaves)
			if s >= leaves {
				t.Fatalf("depth %d: unit %d -> slot %d, outside [0, %d)", depth, u, s, leaves)
			}
			if seen[s] {
				t.Fatalf("depth %d: unit %d -> slot %d, already taken", depth, u, s)
			}
			seen[s] = true
			// The deepest level whose chunks may start at u.
			l := depth - min(bits.TrailingZeros64(u), depth)
			if s >= geometry.FirstOfLevel(l) {
				t.Fatalf("depth %d: level-%d head at unit %d -> slot %d, want below %d",
					depth, l, u, s, geometry.FirstOfLevel(l))
			}
		}
	}
}

// FuzzIndexSlot checks treeSlot against its inverse: slot 0 is unit 0,
// and slot s > 0 is the first unit of the right half of node s, which
// sits at level ⌊log2 s⌋ of a tree with depth levels below the root.
func FuzzIndexSlot(f *testing.F) {
	f.Add(uint8(0), uint64(0))
	f.Add(uint8(1), uint64(1))
	f.Add(uint8(21), uint64(1<<20))
	f.Add(uint8(31), uint64(0x7FFFFFFF))
	f.Fuzz(func(t *testing.T, d uint8, u uint64) {
		depth := int(d % 32) // a leaf's node id must fit a uint32
		leaves := uint64(1) << depth
		u &= leaves - 1
		s := treeSlot(u, leaves)
		if s >= leaves {
			t.Fatalf("depth %d: unit %d -> slot %d, outside [0, %d)", depth, u, s, leaves)
		}
		back := uint64(0)
		if s != 0 {
			back = (2*s+1)<<(depth-1-geometry.LevelOf(s)) - leaves
		}
		if back != u {
			t.Fatalf("depth %d: unit %d -> slot %d -> unit %d", depth, u, s, back)
		}
	})
}

// TestInteriorOffsetPanics fills a whole instance with chunks of one level,
// for every level at both heights, so every head entry of the index is
// live, and requires that ChunkSize and Free of each interior offset of
// each chunk still panic: no interior unit shares a slot with a head.
func TestInteriorOffsetPanics(t *testing.T) {
	for _, k := range []int{1, geometry.BunchSpan} {
		for level := 0; level <= 9; level++ {
			a := mustNew(t, k, 1<<12, 8, 1<<12) // depth 9
			h := a.newHandle()
			size := a.geo.SizeOfLevel(level)
			var heads []uint64
			for {
				off, ok := h.Alloc(size)
				if !ok {
					break
				}
				heads = append(heads, off)
			}
			if got := uint64(len(heads)) * size; got != a.geo.Total {
				t.Fatalf("k=%d level %d: filled %d of %d bytes", k, level, got, a.geo.Total)
			}
			for _, head := range heads {
				if got := a.ChunkSize(head); got != size {
					t.Fatalf("k=%d level %d: ChunkSize(%#x) = %d, want %d", k, level, head, got, size)
				}
				for off := head + a.geo.MinSize; off < head+size; off += a.geo.MinSize {
					mustPanic(t, k, "ChunkSize", off, func() { a.ChunkSize(off) })
					mustPanic(t, k, "Free", off, func() { h.Free(off) })
				}
			}
			for _, head := range heads {
				h.Free(head)
			}
			if a.LiveNodes() != 0 {
				t.Fatalf("k=%d level %d: %d live index entries after drain", k, level, a.LiveNodes())
			}
		}
	}
}

func mustPanic(t *testing.T, k int, op string, off uint64, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("k=%d: %s(%#x) of an interior offset did not panic", k, op, off)
		}
	}()
	f()
}
