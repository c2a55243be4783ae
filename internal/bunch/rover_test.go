package bunch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geometry"
)

// roverTotal is a 512-unit tree whose 64-byte level (level 6, 64 nodes)
// sits inside a bunch at k = 4, so both heights scan it through derived
// interior state as well as materialized lanes.
const (
	roverTotal = 1 << 12
	roverSize  = 64
	roverLevel = 6
)

// relNode returns the node of level that sits r slots after h's home in
// its cyclic scan order.
func relNode(h *Handle, level int, r uint64) uint64 {
	base := geometry.FirstOfLevel(level)
	return base + (h.home(level)+r)&(base-1)
}

// TestAllocResumesAfterLastDelivery plants a level full, frees every
// third node, and requires consecutive same-size Allocs of a fresh handle
// to return the holes in address order from its home, each leaving the
// scan start one past the node it delivered.
func TestAllocResumesAfterLastDelivery(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, roverTotal, 8, roverTotal)
		planter := a.newHandle()
		var planted []uint64
		for {
			off, ok := planter.Alloc(roverSize)
			if !ok {
				break
			}
			planted = append(planted, off)
		}
		if len(planted) != 1<<roverLevel {
			t.Fatalf("k=%d: planted %d chunks, want %d", k, len(planted), 1<<roverLevel)
		}
		holes := map[uint64]bool{}
		for i, off := range planted {
			if i%3 == 0 {
				planter.Free(off)
				holes[off] = true
			}
		}
		h := a.newHandle()
		var want []uint64
		for r := uint64(0); r < 1<<roverLevel; r++ {
			if off := a.geo.OffsetOf(relNode(h, roverLevel, r)); holes[off] {
				want = append(want, off)
			}
		}
		for i, w := range want {
			off, ok := h.Alloc(roverSize)
			if !ok || off != w {
				t.Fatalf("k=%d: alloc %d = (%#x, %v), want hole %#x", k, i, off, ok, w)
			}
			if next := h.start(roverLevel); a.geo.OffsetOf(next) != (off+roverSize)%roverTotal {
				t.Fatalf("k=%d: after delivering %#x the scan starts at %#x", k, off, a.geo.OffsetOf(next))
			}
		}
		if off, ok := h.Alloc(roverSize); ok {
			t.Fatalf("k=%d: alloc on a full level returned %#x", k, off)
		}
	}
}

// TestFreeRewindsRover checks that a handle's free below its rover makes
// its next Alloc return exactly the freed node, while another handle's
// free of a lower node does not move it.
func TestFreeRewindsRover(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, roverTotal, 8, roverTotal)
		h, g := a.newHandle(), a.newHandle()
		offs := make([]uint64, 6)
		for r := range offs {
			off, ok := h.Alloc(roverSize)
			if want := a.geo.OffsetOf(relNode(h, roverLevel, uint64(r))); !ok || off != want {
				t.Fatalf("k=%d: alloc %d on an empty tree = (%#x, %v), want %#x", k, r, off, ok, want)
			}
			offs[r] = off
		}
		h.Free(offs[3])
		h.Free(offs[2]) // the lower of the two frees wins
		if off, _ := h.Alloc(roverSize); off != offs[2] {
			t.Fatalf("k=%d: alloc after freeing %#x = %#x, want the freed node", k, offs[2], off)
		}
		if off, _ := h.Alloc(roverSize); off != offs[3] {
			t.Fatalf("k=%d: second alloc = %#x, want the next freed node %#x", k, off, offs[3])
		}
		g.Free(offs[0]) // a remote free rewinds g's rover, not h's
		want := a.geo.OffsetOf(relNode(h, roverLevel, uint64(len(offs))))
		if off, _ := h.Alloc(roverSize); off != want {
			t.Fatalf("k=%d: alloc after a remote free = %#x, want %#x past the live run", k, off, want)
		}
	}
}

// TestRoverOffWithoutScatter checks the A2 ablation: without scatter
// every scan starts at the level's first node, so the first free node
// wins however far the handle's deliveries have gone.
func TestRoverOffWithoutScatter(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, roverTotal, 8, roverTotal, WithoutScatter())
		h, g := a.newHandle(), a.newHandle()
		for i := uint64(0); i < 5; i++ {
			if off, ok := h.Alloc(roverSize); !ok || off != i*roverSize {
				t.Fatalf("k=%d: alloc %d = (%#x, %v), want %#x", k, i, off, ok, i*roverSize)
			}
			if s := h.start(roverLevel); s != geometry.FirstOfLevel(roverLevel) {
				t.Fatalf("k=%d: scan starts at node %d, want the level's first", k, s)
			}
		}
		g.Free(roverSize)
		if off, _ := h.Alloc(roverSize); off != roverSize {
			t.Fatalf("k=%d: alloc after a remote free = %#x, want the first free node %#x", k, off, roverSize)
		}
	}
}

// TestRoverConcurrentRemoteFrees runs workers that hand every chunk they
// allocate to the next worker to free, so rovers advance and rewind while
// other handles free under them. No chunk may be delivered twice, every
// rover must stay inside its level, and the drained tree must serve its
// whole capacity again.
func TestRoverConcurrentRemoteFrees(t *testing.T) {
	const workers, iters = 4, 3000
	for _, k := range heights {
		a := mustNew(t, k, roverTotal, 8, roverTotal)
		owned := make([]atomic.Bool, roverTotal/roverSize)
		inbox := make([]chan uint64, workers)
		for w := range inbox {
			inbox[w] = make(chan uint64, 16)
		}
		handles := make([]*Handle, workers)
		for w := range handles {
			handles[w] = a.newHandle()
		}
		free := func(h *Handle, off uint64) {
			owned[off/roverSize].Store(false)
			h.Free(off)
		}
		var wg sync.WaitGroup
		var doubles atomic.Int64
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h, out := handles[w], inbox[(w+1)%workers]
				for range iters {
					if off, ok := h.Alloc(roverSize); ok {
						if owned[off/roverSize].Swap(true) {
							doubles.Add(1)
						}
						select {
						case out <- off:
						default:
							free(h, off)
						}
					}
					for drained := false; !drained; {
						select {
						case off := <-inbox[w]:
							free(h, off)
						default:
							drained = true
						}
					}
				}
			}()
		}
		wg.Wait()
		for w := range inbox {
			close(inbox[w])
			for off := range inbox[w] {
				free(handles[w], off)
			}
		}
		if n := doubles.Load(); n != 0 {
			t.Fatalf("k=%d: %d chunks delivered while still live", k, n)
		}
		for w, h := range handles {
			for l, r := range h.rover {
				if l <= a.geo.Depth && uint64(r) >= geometry.LevelWidth(l) {
					t.Fatalf("k=%d: worker %d rover[%d] = %d outside the level", k, w, l, r)
				}
			}
		}
		a.Scrub()
		h := a.newHandle()
		for i := range roverTotal / roverSize {
			if _, ok := h.Alloc(roverSize); !ok {
				t.Fatalf("k=%d: drained tree served %d of %d chunks", k, i, roverTotal/roverSize)
			}
		}
	}
}
