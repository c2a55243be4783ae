package bunch

import "repro/internal/geometry"

// This file implements the alloc.BatchAllocator contract natively: a bulk
// allocation collects the whole batch in the same two-pass SWAR level
// scan that a single Alloc uses for one node. A chunk-at-a-time loop
// restarts the scan at a fresh scatter slot per call and re-walks the
// occupied runs it already skipped; the batched scan keeps its position,
// so the probing cost of the batch is one traversal of the level
// regardless of n.

// AllocBatch reserves up to n chunks of at least size bytes in one level
// scan and appends their offsets to the returned slice. A short (possibly
// empty) result means the level could not serve the remainder; a batch
// that delivers nothing counts one AllocFail, exactly like a failed
// Alloc. Like every handle operation it is single-goroutine.
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
	h.seq++
	start := base + h.scatterSlot(level)
	// The bulk scan advances in word units: snapping the start down to the
	// first node of its word makes every loaded word get consumed from its
	// first in-level field, so consecutive batches walk whole words instead
	// of re-loading a word for a partial tail. A word carries 8>>shift
	// nodes of the level; a level narrower than a word starts inside its
	// word, where the snap stops at the level's first node.
	start = max(base, start&^(7>>h.a.levels[level].shift))

	for pass := 0; pass < 2 && len(out) < n; pass++ {
		lo, hi := start, end
		if pass == 1 {
			lo, hi = base, start
		}
		i := lo
		for len(out) < n {
			off, ok, next := h.scan(level, i, hi)
			i = next
			if !ok {
				break
			}
			out = append(out, off)
		}
		// Advance the scatter sequence past everything this pass walked,
		// so the next batch resumes where this scan stopped (and, after
		// the start realignment above, on the word this scan stopped in).
		// The single-alloc +1 rotation assumes one consumed slot per call;
		// a batch that delivered a whole run would otherwise restart the
		// next call inside its own still-live delivery and re-probe it
		// end to end (quadratic in the live-run length).
		h.seq += min(i, hi) - lo
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
