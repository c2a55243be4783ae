package slab

import (
	"slices"

	"repro/internal/alloc"
)

// magCap is the per-class magazine capacity of a handle; refillBatch is
// how many objects one central take pulls, and spillBatch how many one
// overflow pushes back — half the capacity each, so a worker alternating
// between allocs and frees ping-pongs against the magazine, not the
// central locks.
const (
	magCap      = 64
	refillBatch = 32
	spillBatch  = 32
)

// entry is one magazine slot: the object's offset plus its pre-resolved
// run and slot index. Parking the resolution alongside the offset keeps
// the magazine-hit paths free of run-index loads and slot divisions —
// an Alloc that hits the magazine touches nothing shared but the run's
// own req slot. The run pointer stays valid for as long as the entry is
// parked: a run with objects in a magazine has missing free slots, so it
// can never become fully free and be released.
type entry struct {
	off uint64
	r   *run
	i   uint32
}

// Handle is the per-worker face of the slab layer: class-sized requests
// hit a per-class magazine (no locks), refilled from and spilled to the
// central store in batches; larger requests forward to the wrapped
// per-worker handle. Not safe for concurrent use, like every Handle.
type Handle struct {
	a     *Allocator
	inner alloc.Handle
	mags  [][]entry // per class; nil slices until first use
	stats alloc.Stats
	extra handleExtra
	epoch uint64
	// Workers' handles are allocated back to back and every operation
	// writes the counters, so the pad rounds the handle up to three whole
	// cache lines and no worker's counters share a line with the next
	// handle's fields.
	_ [40]byte
}

// syncDrain catches the handle up with the drain fence: flush every
// magazine holding an offset inside a recorded draining window, so the
// elastic manager's Poll can observe the backing runs empty without
// waiting for a quiescent Scrub.
func (h *Handle) syncDrain(epoch uint64) {
	h.epoch = epoch
	wins := h.a.fence.Windows()
	for ci, m := range h.mags {
		if slices.ContainsFunc(m, func(e entry) bool { return wins.Contains(e.off) }) {
			h.a.put(ci, m)
			h.mags[ci] = m[:0]
			h.extra.drainFlushes++
			h.a.emit("drain-flush", uint64(ci), uint64(len(m)))
		}
	}
}

// checkDrain is the one-atomic-load fast path of the drain fence.
func (h *Handle) checkDrain() {
	if e := h.a.fence.Epoch(); e != h.epoch {
		h.syncDrain(e)
	}
}

// Alloc implements alloc.Handle.
func (h *Handle) Alloc(size uint64) (uint64, bool) {
	h.checkDrain()
	a := h.a
	if a.cutoff == 0 || size > a.cutoff {
		return a.allocLarge(h.inner, size, &h.stats)
	}
	ci := a.classOf(size)
	m := h.mags[ci]
	if len(m) == 0 {
		m = a.take(ci, m, refillBatch)
		if len(m) == 0 {
			return fallThrough(h.inner, size, &h.stats, &h.extra)
		}
		h.extra.refills++
		h.a.emit("refill", uint64(ci), uint64(len(m)))
	}
	e := m[len(m)-1]
	h.mags[ci] = m[:len(m)-1]
	stamp(e.r, e.i, size, &h.extra)
	h.stats.Allocs++
	return e.off, true
}

// Free implements alloc.Handle.
func (h *Handle) Free(off uint64) {
	h.checkDrain()
	a := h.a
	r := a.runAt(off)
	if r == nil {
		h.inner.Free(off)
		h.stats.Frees++
		return
	}
	e := ownFree(r, off, &h.extra)
	h.stats.Frees++
	m := append(h.mags[r.class], e)
	if len(m) > magCap {
		n := len(m) - spillBatch
		a.put(r.class, m[n:])
		m = m[:n]
		h.extra.spills++
		a.emit("spill", uint64(r.class), uint64(spillBatch))
	}
	h.mags[r.class] = m
}

// AllocBatch implements alloc.BatchHandle (the handle face of
// Allocator.allocBatch: the magazine first, then the central store;
// larger sizes go to the wrapped handle's native batching).
func (h *Handle) AllocBatch(size uint64, n int) []uint64 {
	h.checkDrain()
	fwd := func(sz uint64, k int) []uint64 { return alloc.HandleAllocBatch(h.inner, sz, k) }
	return h.a.allocBatch(size, n, h.mags, fwd, &h.stats, &h.extra)
}

// FreeBatch implements alloc.BatchHandle (the handle face of
// Allocator.freeBatch; pass-through offsets go to the wrapped handle).
func (h *Handle) FreeBatch(offs []uint64) {
	h.checkDrain()
	fwd := func(pass []uint64) { alloc.HandleFreeBatch(h.inner, pass) }
	h.a.freeBatch(offs, fwd, &h.stats, &h.extra)
}

// Stats implements alloc.Handle.
func (h *Handle) Stats() *alloc.Stats { return &h.stats }

// Flush spills every magazine to the central store. Callable by the
// owning goroutine at any time, or by Scrub/Close at quiescent points.
func (h *Handle) Flush() {
	for ci, m := range h.mags {
		if len(m) > 0 {
			h.a.put(ci, m)
			h.mags[ci] = m[:0]
		}
	}
}

// Close implements alloc.HandleCloser: flush the magazines, fold the
// counters into the allocator's retained totals, unregister, and close
// the wrapped handle. The handle must not be used afterwards.
func (h *Handle) Close() {
	h.Flush()
	a := h.a
	if a.reg.Remove(h, func() { a.closedExtra.add(h.extra) }) {
		alloc.CloseHandle(h.inner)
	}
}
