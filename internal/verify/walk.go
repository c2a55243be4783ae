package verify

import (
	"math/bits"
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/geometry"
	"repro/internal/multi"
	"repro/internal/slab"
)

// Oracle is the sequential shadow of one allocator stack, the S1/S2
// oracle every single-goroutine net in this repository drives:
//
//   - admission: a delivered chunk is aligned, inside the stack's current
//     offset span, and ChunkSize reports exactly the extent reserved for
//     the request — the buddy's power-of-two rounding, or the slab's size
//     class when the request was slabbed;
//   - occupancy: the chunk's units are claimed on a Checker sized to the
//     largest span the stack can reach, so a unit delivered twice is an
//     S1 violation at the step that delivered it. The extent claimed is
//     Stress's, max(ChunkSize, the request rounded up to MinSize), which
//     admission has already pinned to the reserved extent;
//   - release: a chunk leaves the shadow before its free, and every unit
//     it held must have been claimed (S2);
//   - reconcile: once drained, no elastic slot is left draining, live
//     counts are zero, every layer has as many frees as allocations, and
//     the stack serves a MaxSize chunk again.
//
// The first divergence is reported through fail, prefixed with the step
// it happened at; the oracle checks nothing after it. fail may stop the
// goroutine (t.Fatalf) or return (a harness collecting violations).
type Oracle struct {
	// Step counts the operations of the walk so far. Messages carry it,
	// and a logical clock may read it.
	Step int
	// Denied counts single allocations the stack refused.
	Denied uint64

	a      alloc.Allocator
	geo    geometry.Geometry
	sizer  alloc.ChunkSizer
	sl     *slab.Allocator
	mgr    *elastic.Manager
	chk    *Checker
	live   []chunk
	h, h2  alloc.Handle // the walk's handles, made by its first Walk or Drain
	fail   func(format string, args ...any)
	failed bool
	// op names the stack operation Walk or Drain has in flight, for the
	// report of a panic in it: a format with one verb, which arg fills.
	op  string
	arg uint64
}

// chunk is the oracle's record of one delivered chunk.
type chunk struct{ off, reserved uint64 }

// NewOracle shadows a, reporting divergences through fail. a must
// implement alloc.ChunkSizer, as every allocator in this repository does.
func NewOracle(a alloc.Allocator, fail func(format string, args ...any)) *Oracle {
	return &Oracle{
		a:     a,
		geo:   a.Geometry(),
		sizer: a.(alloc.ChunkSizer),
		sl:    alloc.Find[*slab.Allocator](a),
		mgr:   alloc.Find[*elastic.Manager](a),
		chk:   NewChecker(reach(a), a.Geometry().MinSize),
		fail:  fail,
	}
}

// handles registers the walk's two handles on first use, so a caller
// that only admits and releases adds none to the stack.
func (o *Oracle) handles() {
	if o.h == nil {
		o.h, o.h2 = o.a.NewHandle(), o.a.NewHandle()
	}
}

func (o *Oracle) failf(format string, args ...any) {
	if o.failed {
		return
	}
	o.failed = true
	o.fail("step %d: "+format, append([]any{o.Step}, args...)...)
}

// doing records the stack operation about to run (see op).
func (o *Oracle) doing(op string, arg uint64) { o.op, o.arg = op, arg }

// recoverOp, deferred by Walk and Drain, reports a panic in the stack as
// the divergence of the step and operation it happened in. The walk stops
// there as on any other divergence, and a driver whose fail returns keeps
// its goroutine, so one misbehaving stack cannot take the test binary, or
// a harness's other runs, down with it.
func (o *Oracle) recoverOp() {
	if p := recover(); p != nil {
		o.failf(o.op+": panic: %v", o.arg, p)
	}
}

// Live returns the number of chunks the shadow holds.
func (o *Oracle) Live() int { return len(o.live) }

// Admit checks a chunk the stack delivered for a request of size bytes
// (how names the operation in messages) and records it.
func (o *Oracle) Admit(off, size uint64, how string) {
	if o.failed {
		return
	}
	reserved := o.geo.SizeOfLevel(o.geo.LevelForSize(size))
	align := reserved
	got, ok := o.chunkSize(off, how)
	if !ok {
		return
	}
	// A slabbed request reserves its class, which is only MinSize-aligned —
	// unless the slab's runs were exhausted and the request fell through to
	// the buddy, so both answers are legitimate.
	if got != reserved {
		cls, slabbed := uint64(0), false
		if o.sl != nil {
			cls, slabbed = o.sl.ReservedFor(size)
		}
		if !slabbed || got != cls {
			o.failf("%s(%d) at %#x: ChunkSize = %d, want reserved %d", how, size, off, got, reserved)
			return
		}
		reserved, align = cls, o.geo.MinSize
	}
	// Re-read the span per admission: elastic grows widen it mid-walk.
	if span := alloc.SpanOf(o.a); off%align != 0 || off+reserved > span {
		o.failf("%s(%d) -> [%d,%d) misaligned or outside the %d-byte span", how, size, off, off+reserved, span)
		return
	}
	before := o.chk.Overlaps()
	o.chk.Claim(off, reserved)
	if o.chk.Overlaps() != before {
		o.failf("%s(%d) at %#x double-hands-out a live unit of [%d,%d)", how, size, off, off, off+reserved)
		return
	}
	o.live = append(o.live, chunk{off, reserved})
}

// Release removes the k-th live chunk from the shadow (the last one takes
// its place) and returns its offset for the caller to free.
func (o *Oracle) Release(k int) uint64 {
	c := o.live[k]
	before := o.chk.Unbacked()
	o.chk.Release(c.off, c.reserved)
	if o.chk.Unbacked() != before {
		o.failf("oracle lost a unit of [%d,%d)", c.off, c.off+c.reserved)
	}
	o.live[k] = o.live[len(o.live)-1]
	o.live = o.live[:len(o.live)-1]
	return c.off
}

// ReleaseAll removes every live chunk from the shadow, newest first, and
// passes each offset to free.
func (o *Oracle) ReleaseAll(free func(off uint64)) {
	for len(o.live) > 0 {
		free(o.Release(len(o.live) - 1))
	}
}

// scrub quiesces the stack and re-checks every live chunk's size: the
// rebuild writes whole packed words from the live set, so a stray bit
// an earlier operation left next to a live chunk surfaces here.
func (o *Oracle) scrub(when string) {
	s, ok := o.a.(alloc.Scrubber)
	if !ok {
		return
	}
	o.doing(when+" over %d live", uint64(len(o.live)))
	s.Scrub()
	for _, c := range o.live {
		got, ok := o.chunkSize(c.off, "after "+when)
		if !ok {
			return
		}
		if got != c.reserved {
			o.failf("after %s, ChunkSize(%#x) = %d, want %d", when, c.off, got, c.reserved)
			return
		}
	}
}

// chunkSize asks the stack for the size of a chunk the oracle holds live.
// The stack panics on an offset it does not hold, so a panic here means
// it lost a live chunk: a divergence, reported like the others.
func (o *Oracle) chunkSize(off uint64, how string) (size uint64, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			o.failf("%s: ChunkSize(%#x) of a live chunk panicked: %v", how, off, p)
		}
	}()
	return o.sizer.ChunkSize(off), true
}

// allocOne serves one single-chunk request through serve and admits the
// result.
func (o *Oracle) allocOne(serve func(uint64) (uint64, bool), size uint64, how string) {
	o.doing(how+"(%d)", size)
	if off, ok := serve(size); ok {
		o.Admit(off, size, how)
	} else {
		o.Denied++
	}
}

// Walk runs steps random operations drawn from src and checks every
// answer. The op mix:
//
//   - single and batched allocs and frees through a per-worker handle, so
//     front-end magazines, the depot and native batching engage; half the
//     batches are 7, 8 or 9 chunks — one lane short of a packed status
//     word, one word, one lane past it — and half of those are followed
//     by a Scrub and a ChunkSize re-check of every live chunk;
//   - allocs through a second handle and through the convenience path,
//     whose chunks the first handle frees, so frees cross handles;
//   - quiescent Scrubs;
//   - on an elastic stack, Poll steps and forced Grow and Shrink
//     decisions between the operations, so every check holds across
//     grows, drains and retirements. Their refusals (cap, floor,
//     backpressure) are legitimate outcomes.
//
// Single requests take every size from MinSize to MaxSize; on a slab
// stack half of them take the cutoff, its neighbours or an arbitrary size
// instead, so run carving and the pass-through boundary are covered.
// A panic in any of these is reported as the divergence of its step.
// Walk returns false once the oracle has failed.
func (o *Oracle) Walk(src rand.Source, steps int) bool {
	o.handles()
	defer o.recoverOp()
	rng := rand.New(src)
	sizes := bits.Len64(o.geo.MaxSize / o.geo.MinSize)
	sizeFor := func() uint64 {
		size := o.geo.MinSize << rng.Intn(sizes)
		if o.sl != nil && o.sl.Cutoff() != 0 && rng.Intn(2) == 0 {
			switch rng.Intn(4) {
			case 0:
				size = o.sl.Cutoff() - 1
			case 1:
				size = o.sl.Cutoff()
			case 2:
				size = o.sl.Cutoff() + 1
			default:
				size = 1 + uint64(rng.Int63n(int64(o.geo.MaxSize)))
			}
		}
		return size
	}
	for end := o.Step + steps; o.Step < end && !o.failed; o.Step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			o.allocOne(o.h.Alloc, sizeFor(), "Alloc")
		case op < 6 && len(o.live) > 0:
			off := o.Release(rng.Intn(len(o.live)))
			o.doing("Free(%#x)", off)
			o.h.Free(off)
		case op < 7:
			size := o.geo.MinSize << rng.Intn(max(1, sizes-2))
			n := 7 + rng.Intn(6)
			if n > 9 {
				n = 1 + rng.Intn(48)
			}
			o.doing("AllocBatch(%d)", size)
			offs := alloc.HandleAllocBatch(o.h, size, n)
			for _, off := range offs {
				o.Admit(off, size, "AllocBatch") // a no-op once failed
			}
			if len(offs) > 0 && n <= 9 && rng.Intn(2) == 0 {
				o.scrub("word-boundary Scrub")
			}
		case op < 8 && len(o.live) > 1:
			batch := make([]uint64, 1+rng.Intn(len(o.live)))
			for i := range batch {
				batch[i] = o.Release(rng.Intn(len(o.live)))
			}
			o.doing("FreeBatch of %d chunks", uint64(len(batch)))
			alloc.HandleFreeBatch(o.h, batch)
		case op < 9:
			o.scrub("Scrub")
		case rng.Intn(2) == 0:
			o.allocOne(o.h2.Alloc, sizeFor(), "second-handle Alloc")
		default:
			o.allocOne(o.a.Alloc, sizeFor(), "conv Alloc")
		}
		if o.mgr != nil && rng.Intn(12) == 0 {
			live := uint64(len(o.live))
			switch rng.Intn(4) {
			case 0, 1:
				o.doing("Poll over %d live", live)
				o.mgr.Poll()
			case 2:
				o.doing("Grow over %d live", live)
				o.mgr.Grow()
			case 3:
				o.doing("Shrink over %d live", live)
				o.mgr.Shrink()
			}
		}
	}
	return !o.failed
}

// Drain frees every live chunk, newest first, as one batch through the
// walk's first handle, then Scrubs so magazines and depots hand their
// chunks back down. A panic in either is reported as Walk reports one.
func (o *Oracle) Drain() {
	o.handles()
	defer o.recoverOp()
	rest := make([]uint64, 0, len(o.live))
	o.ReleaseAll(func(off uint64) { rest = append(rest, off) })
	o.doing("drain FreeBatch of %d chunks", uint64(len(rest)))
	alloc.HandleFreeBatch(o.h, rest)
	o.scrub("drain Scrub")
}

// Reconcile checks a drained stack and returns false on a divergence.
// Everything is freed and scrubbed, so every pending drain is at zero
// live and one Poll must complete it: a slot still draining afterwards
// means the live accounting leaked.
func (o *Oracle) Reconcile() bool {
	if o.failed {
		return false
	}
	if o.mgr != nil {
		o.mgr.Poll()
		for _, info := range o.mgr.Router().InstanceInfos() {
			if info.State == multi.Draining || info.State == multi.Active && (info.Live != 0 || info.LiveBytes != 0) {
				o.failf("reconcile: drained slot %d left %v with live=%d liveBytes=%d", info.Slot, info.State, info.Live, info.LiveBytes)
			}
		}
	}
	for _, layer := range alloc.StackStats(o.a) {
		if layer.Stats.Allocs != layer.Stats.Frees {
			o.failf("reconcile: layer %q unbalanced: %d allocs vs %d frees", layer.Layer, layer.Stats.Allocs, layer.Stats.Frees)
		}
	}
	if err := o.chk.Quiesced(); err != nil {
		o.failf("reconcile: %v", err)
	}
	// Only a stack that reconciled so far is asked to serve again.
	if !o.failed && !ServesAfterDrain(o.a, o.geo.MaxSize) {
		o.failf("reconcile: MaxSize alloc denied on the drained stack")
	}
	return !o.failed
}

// ServesAfterDrain reports whether a drained stack serves a chunk of size
// bytes, and frees it again. A non-blocking leaf may strand benign residue,
// so one Scrub is allowed first; a stack without Scrub must serve directly.
func ServesAfterDrain(a alloc.Allocator, size uint64) bool {
	off, ok := a.Alloc(size)
	if s, canScrub := a.(alloc.Scrubber); !ok && canScrub {
		s.Scrub()
		off, ok = a.Alloc(size)
	}
	if ok {
		a.Free(off)
	}
	return ok
}
