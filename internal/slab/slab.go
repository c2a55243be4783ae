// Package slab implements a tcmalloc/mimalloc-style size-class layer over
// any allocator of the layer contract: requests up to a cutoff are served
// from fixed-size object runs carved out of buddy chunks, larger requests
// pass through to the wrapped allocator untouched.
//
// The buddy tree rounds every request to a power of two, so small-object
// traffic wastes up to ~50% of committed memory to internal fragmentation
// and spends tree CAS traffic on tiny chunks. The slab layer fixes both:
// the class table interleaves half-steps (3·2^k) between the powers of
// two, cutting worst-case rounding waste from 2x to 1.5x, and a single
// tree operation provisions a whole run (hundreds of objects), so the
// per-object hot path is a run free-list push/pop.
//
// Frees carry no size and objects carry no headers: a run index keyed by
// the run-chunk-aligned window of an offset resolves any offset to its run
// (or to "not slab memory — forward inward") with one atomic load. The
// same index powers ChunkSize, double-free detection (a per-slot requested
// size doubling as an allocated bit) and the internal-fragmentation gauge.
//
// Class invariants, chosen so the layer is invisible to the conformance
// and differential nets:
//
//   - every class is a multiple of geometry MinSize, so power-of-two
//     requests land on classes exactly equal to the buddy's own rounding
//     and offsets stay MinSize-aligned;
//   - the run chunk is a power of two no larger than geometry MaxSize and
//     no larger than a quarter of the region, so runs coexist with large
//     pass-through allocations;
//   - the cutoff is at most half the run chunk, so every run holds at
//     least two objects.
//
// Residency rule (same as the depot and shard layers): objects parked in
// runs and handle magazines are free-to-caller but live-in-backend — the
// backing chunks pin multi-router live counts. Scrub flushes magazines
// and returns every fully-free run; DrainRange releases empty runs inside
// a retiring window and arms a drain epoch so handle magazines overlapping
// the window flush on their owner's next operation (no quiescence needed).
package slab

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/geometry"
)

// DefaultCutoff is the largest request served from runs when the caller
// does not choose a cutoff (still clamped to half the run chunk).
const DefaultCutoff = 2048

// maxRunChunk caps the run backing-chunk size: large enough to amortize
// one tree operation over hundreds of small objects, small enough that a
// run is a cheap unit of reclaim.
const maxRunChunk = 8192

// emptyCap is how many fully-free runs each class caches for reuse before
// releasing them to the wrapped allocator. Scrub and DrainRange release
// cached empties regardless.
const emptyCap = 2

// run is one backing chunk carved into equal objects. The free stack and
// the transitions between the central lists are guarded by the owning
// class lock; req[i] is written only by the goroutine that owns object i
// at that moment (the allocator on Alloc, the freeer on Free), with
// happens-before supplied by the class lock, the single-owner magazine,
// or the caller's own transfer of the object between goroutines.
type run struct {
	start   uint64 // global offset of the backing chunk
	class   int    // index into Allocator.classes
	objSize uint64
	mul     uint64 // ceil(2^32/objSize): fixed-point reciprocal for slot
	count   uint32
	free    []uint32 // LIFO of free slot indices
	req     []uint32 // requested bytes per slot; 0 = slot is free
}

// slot converts a byte displacement inside the run to a slot index with a
// reciprocal multiply instead of a hardware divide. Exact for every
// displacement below the run chunk: the reciprocal error is at most
// (objSize-1)/2^32 per unit, and displacement·(objSize-1) < 2^13·2^13
// stays far under 2^32 (non-transparent mode implies runChunk ≤ 8192).
func (r *run) slot(d uint64) uint32 {
	return uint32((d * r.mul) >> 32)
}

// runIndex maps off>>shift to the run owning that window. Lookups are one
// atomic load; installs, removals and growth happen under Allocator.idxMu.
// Windows without a run are nil: by buddy exclusivity a pass-through chunk
// can never share a window with a live run, so nil means "forward inward".
type runIndex struct {
	shift uint
	slots []atomic.Pointer[run]
}

func (ix *runIndex) at(off uint64) *run {
	k := off >> ix.shift
	if k >= uint64(len(ix.slots)) {
		return nil
	}
	return ix.slots[k].Load()
}

// classState is the central store of one size class.
type classState struct {
	size uint64

	mu      sync.Mutex
	partial []*run // runs with both live objects and free slots
	empty   []*run // fully-free cached runs, at most emptyCap

	// Counters, guarded by mu.
	runs      uint64 // live runs (incl. full and cached-empty)
	runAllocs uint64 // cumulative backing chunks taken from the inner
	runFrees  uint64 // cumulative backing chunks returned
}

// Allocator is the size-class layer. It implements the full layer
// contract — Geometry, OffsetSpan and Unwrap pass through the embedded
// alloc.Layer — plus the DrainRange hook for elastic retirement.
type Allocator struct {
	alloc.Layer
	geo      geometry.Geometry
	runChunk uint64
	runShift uint
	cutoff   uint64 // 0 when no class fits: transparent pass-through mode
	classes  []classState
	classIdx []uint8 // ceil(size/MinSize) -> class index

	idxMu sync.Mutex // guards index install/remove/grow
	idx   atomic.Pointer[runIndex]

	reg         alloc.Registry[*Handle]
	closedExtra handleExtra // guarded by the registry lock

	convMu    sync.Mutex // guards the conv-path counters
	convStats alloc.Stats
	convExtra handleExtra

	// fence is armed by DrainRange; handles flush magazines overlapping a
	// retiring window on their next operation.
	fence alloc.DrainFence

	// sink, when non-nil, receives one call per magazine refill, spill
	// and drain-fence flush for the telemetry flight recorder (a = class
	// index, b = entries moved). Installed during stack construction,
	// before handles exist; the ring it publishes into is itself
	// concurrency-safe, so handles call it without coordination.
	sink func(event string, a, b uint64)
}

// SetEventSink installs the flight-recorder publish hook for magazine
// refill/spill/drain-flush crossings. Install before traffic; nil
// uninstalls.
func (a *Allocator) SetEventSink(fn func(event string, a, b uint64)) { a.sink = fn }

// emit publishes a magazine-crossing event. Nil-safe.
func (a *Allocator) emit(event string, x, y uint64) {
	if a.sink != nil {
		a.sink(event, x, y)
	}
}

// handleExtra is the slab-specific counter block shared by handles, the
// conv path, and the closed accumulator.
type handleExtra struct {
	frag         int64  // live internal fragmentation contribution, bytes
	fallthroughs uint64 // class-sized requests served by the inner instead
	refills      uint64 // magazine refills from the central store
	spills       uint64 // magazine overflows spilled to the central store
	drainFlushes uint64 // magazine flushes forced by the drain fence
}

func (e *handleExtra) add(o handleExtra) {
	e.frag += o.frag
	e.fallthroughs += o.fallthroughs
	e.refills += o.refills
	e.spills += o.spills
	e.drainFlushes += o.drainFlushes
}

// New wraps inner with the size-class layer. cutoff bounds the largest
// class (0 means DefaultCutoff); the effective cutoff is clamped to half
// the run chunk, and when no valid class fits the geometry the layer runs
// in transparent pass-through mode.
func New(inner alloc.Allocator, cutoff uint64) (*Allocator, error) {
	layer, err := alloc.NewLayer(inner)
	if err != nil {
		return nil, fmt.Errorf("slab: %w", err)
	}
	geo := inner.Geometry()
	a := &Allocator{Layer: layer, geo: geo}
	a.runChunk = min(maxRunChunk, geo.MaxSize, geo.Total/4)
	if a.runChunk < geo.MinSize {
		a.runChunk = geo.MinSize
	}
	for s := uint64(1); ; s <<= 1 {
		if s == a.runChunk {
			break
		}
		a.runShift++
	}
	if cutoff == 0 {
		cutoff = DefaultCutoff
	}
	cutoff = min(cutoff, a.runChunk/2)
	a.buildClasses(cutoff)
	span := alloc.SpanOf(inner)
	a.idx.Store(&runIndex{
		shift: a.runShift,
		slots: make([]atomic.Pointer[run], span>>a.runShift),
	})
	return a, nil
}

// buildClasses fills the class table with every power of two and
// half-step (3·2^k) in [MinSize, cutoff] that is a multiple of MinSize,
// ascending, and builds the size→class lookup. Restricting to multiples
// of MinSize keeps every object MinSize-aligned and makes power-of-two
// classes coincide exactly with the buddy's own rounding.
func (a *Allocator) buildClasses(cutoff uint64) {
	var sizes []uint64
	for c := a.geo.MinSize; c <= cutoff; c <<= 1 {
		sizes = append(sizes, c)
		if h := c + c/2; h <= cutoff && h%a.geo.MinSize == 0 {
			sizes = append(sizes, h)
		}
	}
	if len(sizes) == 0 {
		a.cutoff = 0 // transparent mode
		return
	}
	a.cutoff = sizes[len(sizes)-1]
	a.classes = make([]classState, len(sizes))
	for i, s := range sizes {
		a.classes[i].size = s
	}
	a.classIdx = make([]uint8, a.cutoff/a.geo.MinSize+1)
	ci := 0
	for u := range a.classIdx {
		for uint64(u)*a.geo.MinSize > sizes[ci] {
			ci++
		}
		a.classIdx[u] = uint8(ci)
	}
}

// classOf maps a request size (≤ cutoff) to its class index.
func (a *Allocator) classOf(size uint64) int {
	return int(a.classIdx[(size+a.geo.MinSize-1)/a.geo.MinSize])
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "slab+" + a.Layer.Name() }

// Cutoff returns the largest request size served from runs; 0 means the
// layer is transparent for this geometry.
func (a *Allocator) Cutoff() uint64 { return a.cutoff }

// RunBytes returns the backing-chunk size of a run.
func (a *Allocator) RunBytes() uint64 { return a.runChunk }

// ReservedFor reports the bytes the slab reserves for a request of the
// given size and true, or false when the request passes through to the
// wrapped allocator (which then applies its own rounding).
func (a *Allocator) ReservedFor(size uint64) (uint64, bool) {
	if a.cutoff == 0 || size > a.cutoff {
		return 0, false
	}
	return a.classes[a.classOf(size)].size, true
}

// runAt resolves an offset to its run, or nil for pass-through memory.
func (a *Allocator) runAt(off uint64) *run {
	return a.idx.Load().at(off)
}

// install publishes a run in the index, growing it when the wrapped
// stack's offset span has grown (elastic Grow).
func (a *Allocator) install(r *run) {
	a.idxMu.Lock()
	defer a.idxMu.Unlock()
	ix := a.idx.Load()
	k := r.start >> a.runShift
	if k >= uint64(len(ix.slots)) {
		n := uint64(len(ix.slots)) * 2
		if n == 0 {
			n = 1
		}
		for k >= n {
			n *= 2
		}
		grown := &runIndex{shift: a.runShift, slots: make([]atomic.Pointer[run], n)}
		for i := range ix.slots {
			grown.slots[i].Store(ix.slots[i].Load())
		}
		a.idx.Store(grown)
		ix = grown
	}
	ix.slots[k].Store(r)
}

// remove unpublishes a run. Must happen before the backing chunk is
// returned to the wrapped allocator, so a window can never be re-issued
// as pass-through memory while a stale run entry still claims it.
func (a *Allocator) remove(r *run) {
	a.idxMu.Lock()
	a.idx.Load().slots[r.start>>a.runShift].Store(nil)
	a.idxMu.Unlock()
}

// newRun provisions a run for class ci: a cached empty if available,
// otherwise one backing chunk from the wrapped allocator. Called with the
// class lock held; returns nil when the inner allocation fails.
func (a *Allocator) newRun(ci int) *run {
	cs := &a.classes[ci]
	if n := len(cs.empty); n > 0 {
		r := cs.empty[n-1]
		cs.empty = cs.empty[:n-1]
		return r
	}
	start, ok := a.Layer.Alloc(a.runChunk)
	if !ok {
		return nil
	}
	count := uint32(a.runChunk / cs.size)
	r := &run{start: start, class: ci, objSize: cs.size,
		mul: (1<<32 + cs.size - 1) / cs.size, count: count,
		free: make([]uint32, count), req: make([]uint32, count)}
	for i := uint32(0); i < count; i++ {
		r.free[count-1-i] = i // pop order = ascending offsets
	}
	cs.runs++
	cs.runAllocs++
	a.install(r)
	return r
}

// releaseLocked returns a fully-free run's chunk to the wrapped
// allocator. Called with the class lock held.
func (a *Allocator) releaseLocked(cs *classState, r *run) {
	a.remove(r)
	cs.runs--
	cs.runFrees++
	a.Layer.Free(r.start)
}

// takeRun returns a run of class ci with at least one free slot — the top
// partial run, or a freshly provisioned one — or nil when the inner
// allocator cannot back a new run. Called with the class lock held.
func (a *Allocator) takeRun(cs *classState, ci int) *run {
	if n := len(cs.partial); n > 0 {
		return cs.partial[n-1]
	}
	if r := a.newRun(ci); r != nil {
		cs.partial = append(cs.partial, r)
		return r
	}
	return nil
}

// take moves objects of class ci from the central store into out until
// it holds want, provisioning runs as needed. Each entry carries its run
// and slot, so the magazine-hit paths never touch the run index or
// divide. When the wrapped allocator cannot back a new run, take
// releases every class's cached empty runs — so the freed chunks can
// coalesce into the one this class needs — and tries once more; a short
// result means the wrapped allocator is out of space. Thread-safe.
func (a *Allocator) take(ci int, out []entry, want int) []entry {
	cs := &a.classes[ci]
	for attempt := 0; attempt < 2 && len(out) < want; attempt++ {
		if attempt > 0 {
			a.releaseEmpties(0, math.MaxUint64)
		}
		cs.mu.Lock()
		for len(out) < want {
			r := a.takeRun(cs, ci)
			if r == nil {
				break
			}
			for len(out) < want && len(r.free) > 0 {
				i := r.free[len(r.free)-1]
				r.free = r.free[:len(r.free)-1]
				out = append(out, entry{off: r.start + uint64(i)*r.objSize, r: r, i: i})
			}
			if len(r.free) == 0 {
				cs.partial = cs.partial[:len(cs.partial)-1]
			}
		}
		cs.mu.Unlock()
	}
	return out
}

// putOneLocked pushes one freed slot back onto its run and handles the
// full→partial→empty list transitions. Called with the class lock held.
func (a *Allocator) putOneLocked(cs *classState, r *run, i uint32) {
	r.free = append(r.free, i)
	switch len(r.free) {
	case 1: // full -> partial
		cs.partial = append(cs.partial, r)
	case int(r.count): // partial -> empty
		for j, p := range cs.partial {
			if p == r {
				cs.partial[j] = cs.partial[len(cs.partial)-1]
				cs.partial = cs.partial[:len(cs.partial)-1]
				break
			}
		}
		if len(cs.empty) < emptyCap {
			cs.empty = append(cs.empty, r)
		} else {
			a.releaseLocked(cs, r)
		}
	}
}

// put returns objects of class ci to their runs. The entries must
// already have been through ownFree (the owner-side bookkeeping); put only
// handles central-store state. Thread-safe.
func (a *Allocator) put(ci int, es []entry) {
	cs := &a.classes[ci]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	for _, e := range es {
		a.putOneLocked(cs, e.r, e.i)
	}
}

// releaseEmpties returns every cached empty run whose backing chunk
// starts inside [lo, hi) to the wrapped allocator: the whole cache when a
// run or a pass-through request cannot be served and on Scrub, one
// retiring window on DrainRange.
func (a *Allocator) releaseEmpties(lo, hi uint64) {
	for ci := range a.classes {
		cs := &a.classes[ci]
		cs.mu.Lock()
		kept := cs.empty[:0]
		for _, r := range cs.empty {
			if r.start >= lo && r.start < hi {
				a.releaseLocked(cs, r)
			} else {
				kept = append(kept, r)
			}
		}
		cs.empty = kept
		cs.mu.Unlock()
	}
}

// ownFree performs the owner-side half of freeing a slab object: validate
// the offset against the run, detect double/foreign frees, clear the
// requested-size slot and update the fragmentation gauge. Returns the
// object's entry, for a magazine or for put, the central half.
func ownFree(r *run, off uint64, extra *handleExtra) entry {
	d := off - r.start
	i := r.slot(d)
	if uint64(i)*r.objSize != d {
		panic(fmt.Sprintf("slab: free of offset %d not on a class-%d boundary of run at %d", off, r.objSize, r.start))
	}
	req := r.req[i]
	if req == 0 {
		panic(fmt.Sprintf("slab: double free of offset %d", off))
	}
	r.req[i] = 0
	extra.frag -= int64(r.objSize) - int64(req)
	return entry{off: off, r: r, i: i}
}

// stamp performs the owner-side half of a slab allocation on a resolved
// slot: record the requested size (zero-byte requests keep the allocated
// bit set) and update the fragmentation gauge.
func stamp(r *run, i uint32, size uint64, extra *handleExtra) {
	req := uint32(size)
	if req == 0 {
		req = 1
	}
	r.req[i] = req
	extra.frag += int64(r.objSize) - int64(req)
}

// fallThrough serves a class-sized request the central store could not
// back (take has already released the cached empty runs and retried)
// from the wrapped allocator, counted as a fallthrough.
func fallThrough(inner allocFace, size uint64, stats *alloc.Stats, extra *handleExtra) (uint64, bool) {
	off, ok := inner.Alloc(size)
	if ok {
		extra.fallthroughs++
		stats.Allocs++
	} else {
		stats.AllocFails++
	}
	return off, ok
}

// allocLarge serves a pass-through request, releasing cached empty runs
// and retrying once when the wrapped allocator is out of space.
func (a *Allocator) allocLarge(inner allocFace, size uint64, stats *alloc.Stats) (uint64, bool) {
	off, ok := inner.Alloc(size)
	if !ok && len(a.classes) > 0 {
		a.releaseEmpties(0, math.MaxUint64)
		off, ok = inner.Alloc(size)
	}
	if ok {
		stats.Allocs++
	} else {
		stats.AllocFails++
	}
	return off, ok
}

// allocFace is the single-op face shared by the conv path (the wrapped
// Allocator) and the handle path (the wrapped Handle).
type allocFace interface {
	Alloc(size uint64) (uint64, bool)
	Free(offset uint64)
}

// Alloc implements alloc.Allocator (the thread-safe conv path).
func (a *Allocator) Alloc(size uint64) (uint64, bool) {
	a.convMu.Lock()
	defer a.convMu.Unlock()
	if a.cutoff == 0 || size > a.cutoff {
		return a.allocLarge(&a.Layer, size, &a.convStats)
	}
	var buf [1]entry
	if es := a.take(a.classOf(size), buf[:0], 1); len(es) == 1 {
		stamp(es[0].r, es[0].i, size, &a.convExtra)
		a.convStats.Allocs++
		return es[0].off, true
	}
	return fallThrough(&a.Layer, size, &a.convStats, &a.convExtra)
}

// Free implements alloc.Allocator (the thread-safe conv path).
func (a *Allocator) Free(off uint64) {
	r := a.runAt(off)
	if r == nil {
		a.Layer.Free(off)
		a.convMu.Lock()
		a.convStats.Frees++
		a.convMu.Unlock()
		return
	}
	a.convMu.Lock()
	e := ownFree(r, off, &a.convExtra)
	a.convStats.Frees++
	a.convMu.Unlock()
	a.put(r.class, []entry{e})
}

// AllocBatch implements alloc.BatchAllocator (the conv face of
// allocBatch, serialized like the conv Alloc).
func (a *Allocator) AllocBatch(size uint64, n int) []uint64 {
	a.convMu.Lock()
	defer a.convMu.Unlock()
	return a.allocBatch(size, n, nil, a.Layer.AllocBatch, &a.convStats, &a.convExtra)
}

// FreeBatch implements alloc.BatchAllocator (the conv face of
// freeBatch).
func (a *Allocator) FreeBatch(offs []uint64) {
	a.convMu.Lock()
	defer a.convMu.Unlock()
	a.freeBatch(offs, a.Layer.FreeBatch, &a.convStats, &a.convExtra)
}

// allocBatch is the batch body of both faces: class-sized batches pop the
// handle's magazine (mags is nil on the conv face) and then the central
// store; larger sizes forward to the wrapped layer's batching through
// fwd. The counters are the face's own; only an empty batch counts an
// AllocFail (alloc.BatchAllocator).
func (a *Allocator) allocBatch(size uint64, n int, mags [][]entry, fwd func(uint64, int) []uint64, stats *alloc.Stats, extra *handleExtra) []uint64 {
	if n <= 0 {
		return nil
	}
	var out []uint64
	if a.cutoff == 0 || size > a.cutoff {
		out = fwd(size, n)
	} else {
		ci := a.classOf(size)
		es := make([]entry, 0, n)
		if mags != nil {
			m := mags[ci]
			for len(es) < n && len(m) > 0 {
				es = append(es, m[len(m)-1])
				m = m[:len(m)-1]
			}
			mags[ci] = m
		}
		es = a.take(ci, es, n)
		out = make([]uint64, len(es))
		for j, e := range es {
			stamp(e.r, e.i, size, extra)
			out[j] = e.off
		}
	}
	stats.Allocs += uint64(len(out))
	if len(out) == 0 {
		stats.AllocFails++
	}
	return out
}

// freeBatch is the batch free body of both faces: slab objects go
// straight to their runs grouped by class (bypassing any magazine — batch
// frees are drain traffic, not hot-loop traffic), pass-through offsets
// forward inward as one batch through fwd.
func (a *Allocator) freeBatch(offs []uint64, fwd func([]uint64), stats *alloc.Stats, extra *handleExtra) {
	var pass []uint64
	byClass := map[int][]entry{}
	for _, off := range offs {
		r := a.runAt(off)
		if r == nil {
			pass = append(pass, off)
			continue
		}
		byClass[r.class] = append(byClass[r.class], ownFree(r, off, extra))
	}
	for ci, es := range byClass {
		a.put(ci, es)
	}
	if len(pass) > 0 {
		fwd(pass)
	}
	stats.Frees += uint64(len(offs))
}

// ChunkSize implements alloc.ChunkSizer: the class size for slab objects,
// the wrapped allocator's answer for pass-through memory. Panics on
// offsets that are not currently allocated, like every layer.
func (a *Allocator) ChunkSize(off uint64) uint64 {
	r := a.runAt(off)
	if r == nil {
		return a.Layer.ChunkSize(off)
	}
	d := off - r.start
	if i := r.slot(d); uint64(i)*r.objSize != d || r.req[i] == 0 {
		panic(fmt.Sprintf("slab: ChunkSize of unallocated offset %d", off))
	}
	return r.objSize
}

// Scrub flushes every handle magazine, returns every fully-free run
// (cached empties included) to the wrapped allocator, and forwards
// inward. Like the other layers' Scrub, it is a quiescent maintenance
// hook: no handle may be mid-operation.
func (a *Allocator) Scrub() {
	var hs []*Handle
	a.reg.Walk(func(live []*Handle) { hs = append(hs, live...) })
	for _, h := range hs {
		h.Flush()
	}
	a.releaseEmpties(0, math.MaxUint64)
	a.Layer.Scrub()
}

// DrainRange is the elastic retirement hook: it releases every fully-free
// run whose backing chunk lies inside [lo, hi), then arms the drain fence
// so handles flush magazines overlapping the window on their next
// operation. The elastic manager calls it at drain start and again on
// every Poll, so objects flushed by handles converge to released runs
// without a quiescent Scrub.
func (a *Allocator) DrainRange(lo, hi uint64) {
	a.releaseEmpties(lo, hi)
	a.fence.Arm(lo, hi)
}

// Stats implements alloc.Allocator: the sum of all live handles, closed
// handles and the conv path. For quiescent points.
func (a *Allocator) Stats() alloc.Stats {
	s := a.reg.Stats()
	a.convMu.Lock()
	s.Add(a.convStats)
	a.convMu.Unlock()
	return s
}

// NewHandle implements alloc.Allocator.
func (a *Allocator) NewHandle() alloc.Handle {
	h := &Handle{
		a:     a,
		inner: a.Layer.NewHandle(),
		epoch: a.fence.Epoch(),
	}
	if a.cutoff != 0 {
		h.mags = make([][]entry, len(a.classes))
	}
	a.reg.Add(h)
	return h
}

// Handles returns the number of registered (not yet closed) handles — a
// diagnostic for the handle-leak regression tests.
func (a *Allocator) Handles() int { return a.reg.Len() }

// extraTotals sums the slab-specific counters across live handles, closed
// handles and the conv path.
func (a *Allocator) extraTotals() handleExtra {
	var e handleExtra
	a.reg.Walk(func(live []*Handle) {
		e = a.closedExtra
		for _, h := range live {
			e.add(h.extra)
		}
	})
	a.convMu.Lock()
	e.add(a.convExtra)
	a.convMu.Unlock()
	return e
}

// LayerStats implements alloc.LayerStatser.
func (a *Allocator) LayerStats() []alloc.LayerStats {
	e := a.extraTotals()
	frag := e.frag
	if frag < 0 {
		frag = 0
	}
	var runs, runAllocs, runFrees uint64
	for ci := range a.classes {
		cs := &a.classes[ci]
		cs.mu.Lock()
		runs += cs.runs
		runAllocs += cs.runAllocs
		runFrees += cs.runFrees
		cs.mu.Unlock()
	}
	ls := alloc.LayerStats{
		Layer: "slab",
		Stats: a.Stats(),
		Extra: map[string]uint64{
			"slab_classes":       uint64(len(a.classes)),
			"slab_cutoff":        a.cutoff,
			"slab_run_bytes":     a.runChunk,
			"slab_runs":          runs,
			"slab_run_allocs":    runAllocs,
			"slab_run_frees":     runFrees,
			"slab_frag_bytes":    uint64(frag),
			"slab_fallthroughs":  e.fallthroughs,
			"slab_refills":       e.refills,
			"slab_spills":        e.spills,
			"slab_drain_flushes": e.drainFlushes,
		},
	}
	return append([]alloc.LayerStats{ls}, a.Layer.LayerStats()...)
}

// FragBytes returns the current internal-fragmentation gauge: bytes
// reserved by classes beyond what callers requested, across live objects.
// For quiescent points.
func (a *Allocator) FragBytes() uint64 {
	f := a.extraTotals().frag
	if f < 0 {
		f = 0
	}
	return uint64(f)
}

// ClassInfo describes one size class for diagnostics (nbbsinfo -slab).
type ClassInfo struct {
	Size       uint64 // object size in bytes
	ObjsPerRun uint32
	Runs       uint64 // live runs (full + partial + cached empty)
	Live       uint64 // allocated objects
	Free       uint64 // free slots across live runs
}

// ClassInfos reports the per-class run/occupancy table. It takes every
// class lock and walks the run index, so it is safe concurrently but
// intended for diagnostics.
func (a *Allocator) ClassInfos() []ClassInfo {
	infos := make([]ClassInfo, len(a.classes))
	for ci := range a.classes {
		cs := &a.classes[ci]
		cs.mu.Lock()
		infos[ci] = ClassInfo{
			Size:       cs.size,
			ObjsPerRun: uint32(a.runChunk / cs.size),
			Runs:       cs.runs,
		}
	}
	ix := a.idx.Load()
	for k := range ix.slots {
		if r := ix.slots[k].Load(); r != nil {
			infos[r.class].Free += uint64(len(r.free))
			infos[r.class].Live += uint64(r.count) - uint64(len(r.free))
		}
	}
	for ci := range a.classes {
		a.classes[ci].mu.Unlock()
	}
	return infos
}
