package bunch

import (
	"math/bits"

	"repro/internal/geometry"
	"repro/internal/status"
)

// This file implements the alloc.BatchAllocator contract natively: a bulk
// allocation collects the whole batch in the same two-pass SWAR level
// scan that a single Alloc uses for one node, starting from the same
// rover and leaving it one past the last node delivered, so the probing
// cost of the batch is one traversal of the level regardless of n. The
// scan passes on what is left of the batch, so each reservation takes the
// free nodes of a bunch with one CAS and one climb (tryAlloc), and the
// offsets are those n single Allocs would return. A bulk release runs the
// other way: the batch's entries that lie in one bunch go back with one
// clearing CAS and one climb each way (releaseGroup).

// AllocBatch reserves up to n chunks of at least size bytes in one level
// scan and appends their offsets to the returned slice. A short (possibly
// empty) result means the level could not serve the remainder; only a
// batch that delivers nothing counts an AllocFail (alloc.BatchAllocator).
// Like every handle operation it is single-goroutine.
func (h *Handle) AllocBatch(size uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	geo := h.a.geo
	if size > geo.MaxSize {
		h.stats.AllocFails++
		return nil
	}
	out := make([]uint64, 0, n)
	level := geo.LevelForSize(size)
	base := geometry.FirstOfLevel(level)
	end := base << 1
	// The bulk scan advances in word units: snapping the start down to the
	// first node of its word costs no extra load (the rover's word is read
	// either way) and lets the batch take the free nodes that word holds
	// before the rover, so every loaded word is consumed from its first
	// in-level field. A word carries 8>>shift nodes of the level; a level
	// narrower than a word starts inside its word, where the snap stops at
	// the level's first node.
	start := max(base, h.start(level)&^(7>>h.a.levels[level].shift))

	for pass := 0; pass < 2 && len(out) < n; pass++ {
		lo, hi := start, end
		if pass == 1 {
			lo, hi = base, start
		}
		for i := lo; len(out) < n; {
			first, got, next := h.scan(level, i, hi, n-len(out))
			if got == 0 {
				break
			}
			for ; got != 0; got &= got - 1 {
				out = append(out, geo.OffsetOf(first+uint64(bits.TrailingZeros(got))))
			}
			i = next
		}
	}
	if len(out) == 0 {
		h.stats.AllocFails++
	}
	return out
}

// FreeBatch releases a batch of previously allocated chunks in the state
// the same offsets released one by one by Free, in batch order, leave
// (TestFreeBatchEqualsSingles). Each offset is checked and its index entry
// swapped to 0 as in Free, so one that is not a delivered chunk panics,
// after the entries before it are released. Consecutive entries at one
// level in one bunch (in the top bunch, one word) form a group, released
// like one node that covers all their fields: one phase-1 climb, one CAS
// clearing the fields and one unmark climb (releaseGroup). An entry that
// shares no group goes through freeNode, as in Free. Each group rewinds
// its level's rover once, to its lowest node.
func (h *Handle) FreeBatch(offsets []uint64) {
	a := h.a
	var g freeGroup
	for _, off := range offsets {
		if a.outside(off) {
			h.releaseGroup(&g)
			misuse(off, false)
		}
		n := uint64(h.swapIndex(a.headSlot(off), 0))
		if n == 0 {
			h.releaseGroup(&g)
			misuse(off, true)
		}
		level := geometry.LevelOf(n)
		m := a.levels[level]
		lane := n << m.shift
		span := uint64(a.bunchLanes)
		if m.lam == a.top {
			span = status.LanesPerWord
		}
		bunch, r := lane&^(span-1), h.rel(n, level)
		if g.size == 0 || level != g.level || bunch != g.bunch {
			h.releaseGroup(&g)
			g = freeGroup{n: n, level: level, bunch: bunch, rel: r}
		}
		g.clear |= status.FieldMask(int(lane&7), 1<<m.shift)
		g.order |= uint32(lane&7) << (4 * g.size)
		g.size++
		g.rel = min(g.rel, r)
	}
	h.releaseGroup(&g)
}

// freeGroup collects the nodes of one level whose fields lie in one bunch
// (in the top bunch, one word), which FreeBatch releases together.
type freeGroup struct {
	n     uint64 // the first member
	level int
	bunch uint64 // the bunch's first lane at the materialized level
	clear uint64 // every member's covered fields
	order uint32 // the members' first fields, four bits each, in batch order
	size  int
	rel   uint32 // the lowest member's slot in the handle's scan order (see rel)
}

// releaseGroup releases the collected group and empties it. A lone member
// goes through freeNode. A group runs FREENODE's three phases (release)
// once for the union of its fields: phase 1 climbs if one of the
// sequential frees would have (climbs), phase 2 clears every field with
// one CAS and phase 3 unmarks once, from the word the clear left. The sequential frees of a
// bunch's nodes all climb the same path and only the last one's unmark
// finds the bunch free, so this leaves the words they would leave
// (DESIGN.md, "One CAS for a released group").
func (h *Handle) releaseGroup(g *freeGroup) {
	if g.size == 0 {
		return
	}
	a := h.a
	if g.size == 1 {
		h.freeNode(g.n, a.top)
	} else {
		m := a.levels[g.level]
		word := &a.words[m.off+g.bunch>>3]
		climb := m.lam-a.k >= a.top && g.climbs(word.Load(), 1<<m.shift, a.bunchLanes)
		h.release(word, g.bunch, m.lam, a.top, g.clear, climb)
	}
	h.stats.Frees += uint64(g.size)
	if g.rel < h.rover[g.level] {
		h.rover[g.level] = g.rel
	}
	g.size = 0
}

// climbs reports whether a sequential free of some member, made on word w
// after the members before it in batch order, would pass phase 1's
// derived-buddy test and leave the bunch. The last member's test sees the
// whole group released; its own fields are never among its buddies, so
// it is the test on w with the group's fields cleared. An earlier member
// sees a later one still busy among its buddies, which arrests it unless
// a coalescing bit shares that buddy, so the earlier tests run only when
// the bunch carries one.
func (g *freeGroup) climbs(w uint64, count, lanes int) bool {
	last := int(g.order>>(4*(g.size-1))) & 15
	if !derivedArrest(w&^g.clear, last, count, lanes) {
		return true
	}
	if w&status.Fill(last&^(lanes-1), lanes, status.CoalLeft|status.CoalRight) == 0 {
		return false
	}
	order := g.order
	for i := 0; i < g.size-1; i++ {
		f := int(order & 15)
		if !derivedArrest(w, f, count, lanes) {
			return true
		}
		w &^= status.FieldMask(f, count)
		order >>= 4
	}
	return false
}

// AllocBatch implements alloc.BatchAllocator through a recycled
// convenience handle.
func (a *Allocator) AllocBatch(size uint64, n int) []uint64 {
	h := a.conv.Borrow()
	out := h.AllocBatch(size, n)
	a.conv.Return(h)
	return out
}

// FreeBatch implements alloc.BatchAllocator through a recycled
// convenience handle.
func (a *Allocator) FreeBatch(offsets []uint64) {
	h := a.conv.Borrow()
	h.FreeBatch(offsets)
	a.conv.Return(h)
}
