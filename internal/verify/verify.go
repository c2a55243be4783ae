// Package verify holds the repository's S1/S2 oracles, which share one
// unit-granular claim Checker: it detects overlapping live allocations
// (the paper's safety property S1) and unbacked releases (S2). Oracle
// (walk.go) is the one sequential shadow: alloctest's RunDifferential
// and fixed tapes, internal/chaos and internal/stack's FuzzStack drive
// it. Stress (stress.go) is the one concurrent runner: alloctest's
// Concurrent cases and cmd/nbbsstress run it.
//
// The checker also tracks live-byte occupancy and its peak — the "memory
// consumption peak" the paper's conclusions name as the metric front-end
// composition should improve — so stress reports double as occupancy
// measurements.
package verify

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Checker tracks per-unit claims of a managed region, one bit per unit,
// so claiming a large chunk touches one word per 64 units. All methods
// are safe for concurrent use; violations are counted, not panicked, so
// a stress run can report every incident of a misbehaving allocator
// rather than dying on the first.
type Checker struct {
	minSize   uint64
	words     []atomic.Uint64 // bit u%64 of word u/64 is set while unit u is claimed
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
		words:   make([]atomic.Uint64, (total/minSize+63)/64),
	}
}

// mark sets (claim) or clears the bits of [offset, offset+size)'s units
// and returns how many already were in that state. It swaps words by CAS:
// go1.24.0 miscompiles the old value an And returns here.
func (c *Checker) mark(offset, size uint64, claim bool) (already uint64) {
	for u, end := offset/c.minSize, (offset+size)/c.minSize; u < end; {
		n := min(end-u, 64-u%64)
		w, mask := &c.words[u/64], ^uint64(0)>>(64-n)<<(u%64)
		for {
			old := w.Load()
			next, same := old|mask, old&mask
			if !claim {
				next, same = old&^mask, mask&^old
			}
			if w.CompareAndSwap(old, next) {
				already += uint64(bits.OnesCount64(same))
				break
			}
		}
		u += n
	}
	return already
}

// Claim records that [offset, offset+size) was delivered by an
// allocation. Any unit already claimed counts as an overlap violation.
func (c *Checker) Claim(offset, size uint64) {
	if n := c.mark(offset, size, true); n != 0 {
		c.overlaps.Add(n)
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
	if n := c.mark(offset, size, false); n != 0 {
		c.unbacked.Add(n)
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
	for i := range c.words {
		if w := c.words[i].Load(); w != 0 {
			return fmt.Errorf("verify: unit %d left claimed", i*64+bits.TrailingZeros64(w))
		}
	}
	if v := c.LiveBytes(); v != 0 {
		return fmt.Errorf("verify: %d live bytes after drain", v)
	}
	return nil
}
