// Package verify holds the repository's S1/S2 oracles: a unit-granular
// claim checker that detects overlapping live allocations (the paper's
// safety property S1) and unbalanced releases (S2), a wrapper that
// attaches the checker to any allocator transparently, a deterministic
// concurrent stress runner that drives verified instances with
// reproducible pseudo-random schedules, and the sequential Oracle with
// its random walk over a layer stack (walk.go).
//
// The Oracle is the one sequential shadow the tests drive: alloctest's
// RunDifferential walks it per seed, the conformance tapes
// (RandomSequentialVsShadow, QuickOpSequences) admit and release through
// it, internal/chaos runs its walk under a fault schedule, and
// internal/stack's FuzzStack replays fuzzer bytes as its random source.
//
// The checker also tracks live-byte occupancy and its peak — the "memory
// consumption peak" the paper's conclusions name as the metric front-end
// composition should improve — so stress reports double as occupancy
// measurements.
package verify

import (
	"fmt"
	"sync/atomic"

	"repro/internal/alloc"
)

// Checker tracks per-unit claims of a managed region. All methods are
// safe for concurrent use; violations are counted, not panicked, so a
// stress run can report every incident of a misbehaving allocator rather
// than dying on the first.
type Checker struct {
	minSize   uint64
	units     []atomic.Int32
	overlaps  atomic.Uint64
	unbacked  atomic.Uint64
	liveBytes atomic.Int64
	peakBytes atomic.Int64
}

// NewChecker builds a checker for a region of total bytes with the given
// allocation unit.
func NewChecker(total, minSize uint64) *Checker {
	return &Checker{
		minSize: minSize,
		units:   make([]atomic.Int32, total/minSize),
	}
}

// Claim records that [offset, offset+size) was delivered by an
// allocation. Any unit already claimed counts as an overlap violation.
func (c *Checker) Claim(offset, size uint64) {
	for u := offset / c.minSize; u < (offset+size)/c.minSize; u++ {
		if c.units[u].Add(1) != 1 {
			c.overlaps.Add(1)
		}
	}
	live := c.liveBytes.Add(int64(size))
	for {
		peak := c.peakBytes.Load()
		if live <= peak || c.peakBytes.CompareAndSwap(peak, live) {
			break
		}
	}
}

// Release records that [offset, offset+size) was freed. Any unit not
// currently claimed counts as an unbacked-release violation.
func (c *Checker) Release(offset, size uint64) {
	for u := offset / c.minSize; u < (offset+size)/c.minSize; u++ {
		if c.units[u].Add(-1) != 0 {
			c.unbacked.Add(1)
		}
	}
	c.liveBytes.Add(-int64(size))
}

// Overlaps returns the number of overlapping-claim incidents (S1
// violations) observed so far.
func (c *Checker) Overlaps() uint64 { return c.overlaps.Load() }

// Unbacked returns the number of release-without-claim incidents (S2
// violations) observed so far.
func (c *Checker) Unbacked() uint64 { return c.unbacked.Load() }

// LiveBytes returns the currently claimed bytes.
func (c *Checker) LiveBytes() int64 { return c.liveBytes.Load() }

// PeakBytes returns the maximum concurrently claimed bytes seen.
func (c *Checker) PeakBytes() int64 { return c.peakBytes.Load() }

// Quiesced verifies the checker is back to the empty state: zero live
// claims and zero recorded violations. Call it after draining.
func (c *Checker) Quiesced() error {
	if v := c.Overlaps(); v != 0 {
		return fmt.Errorf("verify: %d overlapping-claim incidents (S1 violated)", v)
	}
	if v := c.Unbacked(); v != 0 {
		return fmt.Errorf("verify: %d unbacked releases (S2 violated)", v)
	}
	for u := range c.units {
		if v := c.units[u].Load(); v != 0 {
			return fmt.Errorf("verify: unit %d left with claim count %d", u, v)
		}
	}
	if v := c.LiveBytes(); v != 0 {
		return fmt.Errorf("verify: %d live bytes after drain", v)
	}
	return nil
}

// Allocator wraps an allocator so every operation is checked. The wrapped
// allocator must implement alloc.ChunkSizer (all allocators in this
// repository do) so the checker can claim the exact reserved window.
type Allocator struct {
	inner alloc.Allocator
	sizer alloc.ChunkSizer
	chk   *Checker
}

// Wrap attaches a fresh checker to an allocator. The checker covers the
// allocator's global offset space, which for composed stacks (a
// multi-instance router) is wider than the per-instance geometry.
func Wrap(inner alloc.Allocator) (*Allocator, error) {
	sizer, ok := inner.(alloc.ChunkSizer)
	if !ok {
		return nil, fmt.Errorf("verify: %s cannot report chunk sizes", inner.Name())
	}
	return &Allocator{
		inner: inner,
		sizer: sizer,
		chk:   NewChecker(alloc.SpanOf(inner), inner.Geometry().MinSize),
	}, nil
}

// Checker exposes the attached checker.
func (a *Allocator) Checker() *Checker { return a.chk }

// Handle is a verified per-worker handle.
type Handle struct {
	inner alloc.Handle
	a     *Allocator
}

// NewHandle returns a verified handle.
func (a *Allocator) NewHandle() *Handle {
	return &Handle{inner: a.inner.NewHandle(), a: a}
}

// Alloc forwards and claims the reserved window.
func (h *Handle) Alloc(size uint64) (uint64, bool) {
	off, ok := h.inner.Alloc(size)
	if ok {
		h.a.chk.Claim(off, h.a.sizer.ChunkSize(off))
	}
	return off, ok
}

// Free releases the claim, then forwards. The claim must be released
// before the inner free: afterwards the chunk may instantly be delivered
// to another thread, and a late release would misfire as an S2 violation.
func (h *Handle) Free(offset uint64) {
	h.a.chk.Release(offset, h.a.sizer.ChunkSize(offset))
	h.inner.Free(offset)
}

// Stats forwards to the inner handle.
func (h *Handle) Stats() *alloc.Stats { return h.inner.Stats() }
