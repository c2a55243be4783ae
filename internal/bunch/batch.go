package bunch

import (
	"math/bits"

	"repro/internal/geometry"
)

// This file implements the alloc.BatchAllocator contract natively: a bulk
// allocation collects the whole batch in the same two-pass SWAR level
// scan that a single Alloc uses for one node, starting from the same
// rover and leaving it one past the last node delivered, so the probing
// cost of the batch is one traversal of the level regardless of n. The
// scan passes on what is left of the batch, so each reservation takes the
// free nodes of a bunch with one CAS and one climb (tryAlloc), and the
// offsets are those n single Allocs would return.

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

// FreeBatch releases a batch of previously allocated chunks. The release
// climbs are the same as chunk-at-a-time frees (coalescing is already
// pairwise); the batch form exists so layer crossings hand the whole
// magazine down in one call.
func (h *Handle) FreeBatch(offsets []uint64) {
	for _, off := range offsets {
		h.Free(off)
	}
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
