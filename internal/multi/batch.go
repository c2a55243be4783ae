package multi

// Batch routing: the router implements the bulk-transfer contract by
// splitting batches per instance. A bulk allocation asks the preferred
// instance for the whole batch and falls back to the other instances for
// the remainder (the per-chunk zone-fallback discipline, applied once per
// sub-batch instead of once per chunk); a bulk release hands each run of
// consecutive offsets that one instance owns to that instance in one
// call, so a drain of chunks one instance served crosses the router as
// one operation rather than one per chunk.
//
// The failure hints follow the single-chunk rules: a sub-batch the leaf
// serves short sets the slot's bit, hinted slots are skipped on the first
// pass and asked on a second pass only for the remainder nothing else
// served, and every release that reaches a slot clears its hints.
//
// With live tracking (elastic deployments) the batch paths follow the
// same cell discipline as the single-chunk paths: the handle's live cell
// on the slot is raised by the full requested amount before the state
// check and settled to the delivered amount afterwards, and batch frees
// decrement it only after the instance-level release completed. Each
// release run is rebased in a handle-owned scratch slice, so a bulk free
// allocates nothing once the scratch has grown to the longest run.

import (
	"math/bits"

	"repro/internal/alloc"
)

// tryAllocBatchOn asks slot k for up to n chunks, honouring the elastic
// live-cell ordering (raise before the state check, settle after). A
// short answer from the leaf sets the slot's failure-hint bit.
func (h *Handle) tryAllocBatchOn(s *slot, k int, size uint64, n int, bit uint64) []uint64 {
	r := h.sub(s, k)
	c := r.cell
	if c != nil {
		add(&c.n, int64(n))
		if s.state.Load() != slotActive {
			add(&c.n, int64(-n))
			return nil
		}
	}
	got := alloc.HandleAllocBatch(r.h, size, n)
	if len(got) < n {
		s.markFull(bit)
	}
	if c != nil {
		if delta := int64(len(got) - n); delta != 0 {
			add(&c.n, delta)
		}
		if len(got) > 0 {
			add(&c.bytes, int64(h.m.reservedFor(size))*int64(len(got)))
		}
	}
	return got
}

// AllocBatch implements alloc.BatchHandle with per-instance routing.
func (h *Handle) AllocBatch(size uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	var out []uint64
	t := h.m.tab.Load()
	h.syncTable(t)
	cnt := len(t.slots)
	bit := h.m.hintBit(size)
	// Walk from a snapshot of the preference: the fallback path below may
	// move h.pref to a serving instance mid-batch, which must not reorder
	// the remainder of this walk.
	pref := h.pref
	var skipped uint64 // bit d: the slot at distance d was hinted full
	for d := 0; d < cnt && len(out) < n; d++ {
		k := (pref + d) % cnt
		s := t.slots[k]
		if s == nil {
			continue
		}
		if d < 64 && s.full.Load()&bit != 0 {
			skipped |= 1 << d
			h.hintSkips++
			continue
		}
		out = h.take(out, h.tryAllocBatchOn(s, k, size, n-len(out), bit), k, d)
	}
	for ; skipped != 0 && len(out) < n; skipped &= skipped - 1 {
		d := bits.TrailingZeros64(skipped)
		k := (pref + d) % cnt
		h.hintSkips--
		out = h.take(out, h.tryAllocBatchOn(t.slots[k], k, size, n-len(out), bit), k, d)
	}
	if len(out) == 0 {
		h.stats.AllocFails++
	}
	return out
}

// take rebases the chunks slot k, at distance d from the preference,
// delivered and appends them to the batch result.
func (h *Handle) take(out, got []uint64, k, d int) []uint64 {
	if len(got) == 0 {
		return out
	}
	base := uint64(k) * h.m.span
	for i := range got {
		got[i] += base
	}
	// The first serving instance's slice, rebased in place, becomes the
	// result: a batch one instance serves whole costs the leaf's
	// allocation and no second one.
	if out == nil {
		out = got
	} else {
		out = append(out, got...)
	}
	h.stats.Allocs += uint64(len(got))
	if d != 0 {
		h.fallbacks += uint64(len(got))
		if h.m.policy == RoundRobin {
			// Move the preference to the serving instance, as on the
			// single-chunk fallback path.
			h.pref = k
		}
	}
	return out
}

// FreeBatch implements alloc.BatchHandle in one pass over the offsets:
// each maximal run of consecutive offsets that one instance owns is
// rebased into the handle's scratch and released in one call to that
// instance (releaseRun). Only a run's first offset is routed; the rest
// join it while their slot bits match. An offset that routes to no
// instance panics, after the runs before it were released, as an
// offset a leaf does not hold panics after the entries before it.
func (h *Handle) FreeBatch(offsets []uint64) {
	m := h.m
	t := m.tab.Load()
	h.syncTable(t)
	for i := 0; i < len(offsets); {
		k, _, s := m.route(t, offsets[i])
		base := uint64(k) << m.spanShift
		run := h.scratch[:0]
		for ; i < len(offsets) && offsets[i]>>m.spanShift == uint64(k); i++ {
			run = append(run, offsets[i]-base)
		}
		h.scratch = run
		h.releaseRun(s, k, run)
	}
}

// releaseRun releases a run of slot k's local offsets in one leaf call.
// With live tracking the handle's cell on the slot drops by the run only
// after the release completed, as for a single Free.
func (h *Handle) releaseRun(s *slot, k int, run []uint64) {
	r := h.sub(s, k)
	var bytes int64
	if r.cell != nil {
		// Read reserved sizes before the release clears the metadata.
		for _, local := range run {
			bytes += int64(s.sizer.ChunkSize(local))
		}
	}
	alloc.HandleFreeBatch(r.h, run)
	s.clearFull()
	if c := r.cell; c != nil {
		add(&c.bytes, -bytes)
		add(&c.n, int64(-len(run)))
	}
	h.stats.Frees += uint64(len(run))
}

// AllocBatch implements alloc.BatchAllocator through a recycled
// convenience handle (see Multi.Alloc for why handles are pooled).
func (m *Multi) AllocBatch(size uint64, n int) []uint64 {
	h := m.conv.Borrow()
	out := h.AllocBatch(size, n)
	m.conv.Return(h)
	return out
}

// FreeBatch implements alloc.BatchAllocator through a recycled handle.
func (m *Multi) FreeBatch(offsets []uint64) {
	h := m.conv.Borrow()
	h.FreeBatch(offsets)
	m.conv.Return(h)
}
