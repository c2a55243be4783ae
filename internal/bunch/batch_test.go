package bunch

import (
	"fmt"
	"math/rand/v2"
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

// leafOf returns the NB handle inside a twin's handle.
func leafOf(h alloc.Handle) *Handle {
	if l, ok := h.(lockedHandle); ok {
		return l.Handle
	}
	return h.(*Handle)
}

// freeSetups allocate the live sets TestFreeBatchEqualsSingles releases,
// the same calls on both twins: a contiguous run of 8 B chunks that
// crosses word boundaries, chunks of mixed levels, and chunks of the
// levels the top bunch carries, a run of one level and then mixed ones
// (in a tree too small to hold them all, the run ends short).
var freeSetups = []struct {
	name string
	live func(h alloc.Handle, geo geometry.Geometry) []uint64
}{
	{"run", func(h alloc.Handle, _ geometry.Geometry) []uint64 { return alloc.HandleAllocBatch(h, 8, 100) }},
	{"mixed", func(h alloc.Handle, _ geometry.Geometry) []uint64 {
		var out []uint64
		for i := 0; i < 60; i++ {
			if off, ok := h.Alloc([]uint64{8, 8, 16, 8, 32, 8, 8, 64, 128, 8}[i%10]); ok {
				out = append(out, off)
			}
		}
		return out
	}},
	{"top", func(h alloc.Handle, geo geometry.Geometry) []uint64 {
		out := alloc.HandleAllocBatch(h, geo.MaxSize>>2, 12)
		for i := 0; i < 12; i++ {
			if off, ok := h.Alloc(geo.MaxSize >> (i * 7 % 3)); ok {
				out = append(out, off)
			}
		}
		return out
	}},
}

// freeOrders cut a live set into the batches TestFreeBatchEqualsSingles
// frees one after the other: all of it in allocation order, reversed or
// shuffled; the even entries and then the odd ones, so groups have gaps
// held by live chunks; and runs of five, so groups end at batch
// boundaries. The last three put an offset that is not a delivered chunk
// in the middle of a batch: one the batch already freed, one an earlier
// batch freed, and one past the region. That batch panics there, and the
// next one frees what it left.
var freeOrders = []struct {
	name    string
	bad     int // the batch that must panic, -1 for none
	batches func(live []uint64) [][]uint64
}{
	{"contiguous", -1, func(live []uint64) [][]uint64 { return [][]uint64{live} }},
	{"reversed", -1, func(live []uint64) [][]uint64 {
		r := slices.Clone(live)
		slices.Reverse(r)
		return [][]uint64{r}
	}},
	{"shuffled", -1, func(live []uint64) [][]uint64 {
		r := slices.Clone(live)
		rand.New(rand.NewPCG(1, 2)).Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		return [][]uint64{r}
	}},
	{"strided", -1, func(live []uint64) [][]uint64 {
		var even, odd []uint64
		for i, off := range live {
			if i%2 == 0 {
				even = append(even, off)
			} else {
				odd = append(odd, off)
			}
		}
		return [][]uint64{even, odd}
	}},
	{"fives", -1, func(live []uint64) [][]uint64 { return slices.Collect(slices.Chunk(live, 5)) }},
	{"double free", 0, func(live []uint64) [][]uint64 {
		h := (len(live) + 1) / 2
		return [][]uint64{slices.Concat(live[:h], live[:1], live[h:]), live[h:]}
	}},
	{"freed before", 1, func(live []uint64) [][]uint64 {
		h := (len(live) + 1) / 2
		j := min(h+1, len(live))
		return [][]uint64{live[:h], slices.Concat(live[h:j], live[:1], live[j:]), live[j:]}
	}},
	{"past the region", 0, func(live []uint64) [][]uint64 {
		h := (len(live) + 1) / 2
		return [][]uint64{slices.Concat(live[:h], []uint64{1 << 40}, live[h:]), live[h:]}
	}},
}

// TestFreeBatchEqualsSingles requires FreeBatch to leave the state that
// Free of the same offsets, in batch order, leaves: the same words,
// index entries, rovers and Frees count, and a panic at the same offset.
// A released group must equal releasing its nodes one at a time with no
// interleaving. The twins are TestAllocBatchEqualsSingles': k = 1 and 4,
// NB and SL, empty and planted trees. Every live set of freeSetups is
// released in every cut of freeOrders; in the planted tree the pending
// coalescing bits sit among the 8 B chunks. Stats other than Frees are
// not compared: the batch exists to issue fewer RMWs.
func TestFreeBatchEqualsSingles(t *testing.T) {
	for _, tree := range []struct {
		total, maxSize uint64
		planted        bool
	}{
		{64 << 10, 8 << 10, false},
		{64 << 10, 8 << 10, true},
		{1 << 10, 1 << 10, false},
	} {
		for _, k := range heights {
			for _, locked := range []bool{false, true} {
				for _, setup := range freeSetups {
					for _, order := range freeOrders {
						name := fmt.Sprintf("k=%d locked=%v total=%d planted=%v %s/%s", k, locked, tree.total, tree.planted, setup.name, order.name)
						ab, hb := newTwin(t, k, tree.total, tree.maxSize, locked)
						as, hs := newTwin(t, k, tree.total, tree.maxSize, locked)
						if tree.planted {
							plantLive(t, ab, hb)
							plantLive(t, as, hs)
						}
						live := setup.live(hb, ab.geo)
						if got := setup.live(hs, as.geo); !slices.Equal(live, got) {
							t.Fatalf("%s: twins allocated %#x and %#x", name, live, got)
						}
						if len(live) == 0 {
							t.Fatalf("%s: nothing allocated", name)
						}
						for i, batch := range order.batches(live) {
							pb := panics(func() { alloc.HandleFreeBatch(hb, batch) })
							ps := panics(func() {
								for _, off := range batch {
									hs.Free(off)
								}
							})
							if want := i == order.bad; pb != want || ps != want {
								t.Fatalf("%s: batch %d panicked: %v, the singles: %v; want %v", name, i, pb, ps, want)
							}
							sameState(t, name, ab, hb, as, hs)
						}
					}
				}
			}
		}
	}
}

// TestFreeBatchPendingCoalescing covers the one case in which a member
// other than the last one of a group climbs. In plantLive's tree the 8 B
// leaves 513, 514 and 517 carry coalescing bits; leaves 512, 515, 516,
// 518 and 519 are taken here. Freed alone, 512 finds each buddy of its
// branch clear or coalescing and climbs, leaving coalescing marks above
// its bunch; 518, freed after it, stops at 519, busy and not coalescing.
// The batch [512, 518] must leave those marks too. The set-up frees no
// leaf of the bunch, whose release would have left the marks already.
func TestFreeBatchPendingCoalescing(t *testing.T) {
	for _, k := range heights {
		for _, locked := range []bool{false, true} {
			name := fmt.Sprintf("k=%d locked=%v", k, locked)
			twins := [2]struct {
				a *Allocator
				h alloc.Handle
			}{}
			for i := range twins {
				a, h := newTwin(t, k, 64<<10, 8<<10, locked)
				plantLive(t, a, h)
				// Take every 8 B leaf up to 520, then give back the ones
				// outside the bunch of 512-519.
				var spare []uint64
				for {
					off, ok := h.Alloc(8)
					if !ok {
						t.Fatalf("%s: 8 B alloc failed", name)
					}
					if off/64 != 4096/64 {
						spare = append(spare, off)
					}
					if off > 4096+56 {
						break
					}
				}
				for _, off := range spare {
					h.Free(off)
				}
				twins[i].a, twins[i].h = a, h
			}
			b, s := twins[0], twins[1]
			sameState(t, name+" before", b.a, b.h, s.a, s.h)
			alloc.HandleFreeBatch(b.h, []uint64{4096, 4096 + 48})
			s.h.Free(4096)
			s.h.Free(4096 + 48)
			sameState(t, name, b.a, b.h, s.a, s.h)
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// sameState fails the test unless twin b (released by FreeBatch) and
// twin s (released by Free) hold the same words, index entries and
// rovers and counted the same frees.
func sameState(t *testing.T, name string, ab *Allocator, hb alloc.Handle, as *Allocator, hs alloc.Handle) {
	t.Helper()
	if wb, ws := words(ab), words(as); !slices.Equal(wb, ws) {
		for i := range wb {
			if wb[i] != ws[i] {
				t.Fatalf("%s: word %d is %#x after the batch, %#x after the singles", name, i, wb[i], ws[i])
			}
		}
	}
	for i := range ab.index {
		if b, s := ab.index[i].Load(), as.index[i].Load(); b != s {
			t.Fatalf("%s: index slot %d holds %d after the batch, %d after the singles", name, i, b, s)
		}
	}
	lb, ls := leafOf(hb), leafOf(hs)
	if lb.rover != ls.rover {
		t.Fatalf("%s: rovers %v after the batch, %v after the singles", name, lb.rover, ls.rover)
	}
	if lb.stats.Frees != ls.stats.Frees {
		t.Fatalf("%s: %d frees counted by the batch, %d by the singles", name, lb.stats.Frees, ls.stats.Frees)
	}
}

// TestFreeBatchRMW pins what a drain costs the leaf, in RMWs, against the
// same offsets freed one by one, on the two geometries the drains reach.
// On the shipping instance (16 MiB of 8 B units, 16 KiB max; top = 13) a
// 4 KiB chunk is two lanes of a top word, so a contiguous 32-chunk
// magazine drain clears four chunks per CAS and climbs nowhere: 8 RMWs,
// not 32. On a burst-elastic instance (4 MiB of 64 B units, 64 KiB max;
// top = 8) eight 1 KiB chunks fill a bunch of level 12, and the 512
// newest of 1024 go back in 64 groups of one coalescing mark, one clear
// and one unmark each, where the singles clear seven chunks alone and
// pay those three RMWs for the eighth. No CAS fails on one goroutine.
func TestFreeBatchRMW(t *testing.T) {
	for _, c := range []struct {
		name                 string
		total, unit, maxSize uint64
		size                 uint64
		live, drain          int
		batch, singles       uint64
	}{
		{"magazine", 16 << 20, 8, 16 << 10, 4 << 10, 32, 32, 8, 32},
		{"burst", 4 << 20, 64, 64 << 10, 1 << 10, 1024, 512, 192, 640},
	} {
		var rmw [2]uint64
		for i := range rmw {
			a := mustNew(t, geometry.BunchSpan, c.total, c.unit, c.maxSize)
			h := a.newHandle()
			var live []uint64
			for len(live) < c.live {
				got := h.AllocBatch(c.size, min(c.live-len(live), 512))
				if len(got) == 0 {
					t.Fatalf("%s: AllocBatch failed after %d chunks", c.name, len(live))
				}
				live = append(live, got...)
			}
			before := h.stats
			if drain := live[len(live)-c.drain:]; i == 0 {
				h.FreeBatch(drain)
			} else {
				for _, off := range drain {
					h.Free(off)
				}
			}
			if fails := h.stats.CASFail - before.CASFail; fails != 0 {
				t.Fatalf("%s: %d CAS failures on one goroutine", c.name, fails)
			}
			rmw[i] = h.stats.RMW - before.RMW
		}
		if rmw != [2]uint64{c.batch, c.singles} {
			t.Errorf("%s: a %d-chunk drain costs %d RMWs batched and %d freed one by one, want %d and %d",
				c.name, c.drain, rmw[0], rmw[1], c.batch, c.singles)
		}
	}
}
