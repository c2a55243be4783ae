// Package alloc defines the allocator contract shared by the non-blocking
// buddy system and all baseline allocators of the evaluation, together
// with per-worker handles and the instrumentation counters the ablation
// experiments report.
//
// All allocators manage a contiguous region and trade in offsets relative
// to its base; offset 0 is a valid allocation, so the boolean result — not
// a sentinel offset — signals failure, exactly like the paper's NBALLOC
// returning NULL.
package alloc

import "repro/internal/geometry"

// Allocator is a back-end buddy allocator instance.
//
// Alloc returns the offset of a chunk of at least size bytes and true, or
// false if the current state of the instance cannot serve the request
// (size too large, or no free node at the target level). Free releases a
// previously allocated chunk by its offset.
//
// Alloc and Free on the Allocator itself are safe for concurrent use. For
// hot loops, each worker should obtain its own Handle: handles carry the
// per-worker scatter state that spreads same-level allocations across the
// tree (paper §III.B) and per-worker statistics that avoid any shared
// counter traffic on the measurement path.
type Allocator interface {
	// Name returns the evaluation label of the allocator, e.g. "1lvl-nb".
	Name() string
	// Geometry returns the instance's tree geometry.
	Geometry() geometry.Geometry
	// Alloc and Free serve one-off requests through an internal handle.
	Alloc(size uint64) (offset uint64, ok bool)
	Free(offset uint64)
	// NewHandle returns a handle for a single worker goroutine. Handles
	// must not be shared between goroutines.
	NewHandle() Handle
	// Stats aggregates the statistics of all handles created so far.
	// It is intended for quiescent points (after a benchmark run).
	Stats() Stats
}

// Handle is a per-worker view of an allocator. It is not safe for
// concurrent use; create one Handle per goroutine.
type Handle interface {
	Alloc(size uint64) (offset uint64, ok bool)
	Free(offset uint64)
	// Stats returns the live counters of this handle.
	Stats() *Stats
}

// HandleCloser is implemented by handles that can be released: Close
// flushes any chunks the handle has parked (magazines, bins), folds its
// counters into the allocator's retained totals so quiescent Stats keep
// adding up, and removes the handle from the allocator's registry. After
// Close the handle must not be used. Closing is optional — short-lived
// benchmark workers may simply drop handles — but long-running
// worker-churn deployments must Close to keep registries bounded.
type HandleCloser interface{ Close() }

// CloseHandle closes h when its layer supports closing, and is a no-op
// otherwise. Layers forward it to the handles they wrap so a single call
// releases a whole per-worker stack.
func CloseHandle(h Handle) {
	if c, ok := h.(HandleCloser); ok {
		c.Close()
	}
}

// ChunkSizer is implemented by allocators that can report the reserved
// (power-of-two) size of a currently delivered chunk from their own
// metadata. Front-end layers rely on it to classify frees without
// trusting the caller to remember sizes. Implementations panic when the
// offset is not currently allocated.
//
// ChunkSizer is part of the composable-layer contract (see DESIGN.md):
// every layer — leaf allocator, multi-instance router, caching front-end,
// slab — implements it, which is what lets layers stack in any order.
type ChunkSizer interface {
	ChunkSize(offset uint64) uint64
}

// Spanner is implemented by layers whose offset space is wider than the
// per-instance Geometry().Total — the multi-instance router serves global
// offsets [0, Instances*Total). Layers that wrap another allocator must
// forward it so the span survives stacking.
type Spanner interface {
	OffsetSpan() uint64
}

// SpanOf returns the size of an allocator's global offset space: the
// OffsetSpan when the allocator (or stack) reports one, the managed
// region size otherwise.
func SpanOf(a Allocator) uint64 {
	if s, ok := a.(Spanner); ok {
		return s.OffsetSpan()
	}
	return a.Geometry().Total
}

// Scrubber is the quiescent maintenance hook of the non-blocking
// allocators: Scrub rebuilds metadata from the live-allocation index,
// shedding the conservative residue racing releases may strand (see
// DESIGN.md). Composable layers forward Scrub inward — and may use it to
// release layer-held resources, like a caching front-end flushing its
// magazines — so a whole stack quiesces with one call.
type Scrubber interface{ Scrub() }

// LayerStats is one layer's contribution to a stack's counters: the
// operations observed at that layer plus layer-specific extras (magazine
// hits, routing fallbacks, committed bytes, ...).
type LayerStats struct {
	// Layer labels the layer, e.g. "depot", "multi[4x 4lvl-nb]".
	Layer string
	// Stats are the allocator-contract counters at this layer.
	Stats Stats
	// Extra carries layer-specific counters keyed by name.
	Extra map[string]uint64
}

// LayerStatser is implemented by composable layers: LayerStats returns
// this layer's entry followed by the entries of everything it wraps,
// top-down. Like Stats, it is for quiescent points.
type LayerStatser interface {
	LayerStats() []LayerStats
}

// StackStats returns the per-layer counters of an allocator stack,
// top-down. A leaf allocator contributes a single entry.
func StackStats(a Allocator) []LayerStats {
	if ls, ok := a.(LayerStatser); ok {
		return ls.LayerStats()
	}
	return []LayerStats{{Layer: a.Name(), Stats: a.Stats()}}
}

// Stats counts the work performed by an allocator handle. RMW counts the
// atomic read-modify-write instructions issued (CAS attempts and atomic
// adds), the metric the 4-level optimization is designed to reduce
// (paper §III.D); CASFail counts the failed subset; Retries counts
// operation-level restarts (a TryAlloc abort followed by a move to another
// node); LockAcq counts lock acquisitions for blocking allocators.
type Stats struct {
	Allocs     uint64 // successful allocations
	Frees      uint64 // successful releases
	AllocFails uint64 // allocations that returned !ok
	RMW        uint64 // atomic RMW instructions issued
	CASFail    uint64 // failed CAS attempts
	Retries    uint64 // node-level allocation retries (TryAlloc aborts)
	LockAcq    uint64 // spin-lock acquisitions (blocking baselines only)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Allocs += other.Allocs
	s.Frees += other.Frees
	s.AllocFails += other.AllocFails
	s.RMW += other.RMW
	s.CASFail += other.CASFail
	s.Retries += other.Retries
	s.LockAcq += other.LockAcq
}

// OpsTotal returns the total completed operations (allocs + frees).
func (s *Stats) OpsTotal() uint64 { return s.Allocs + s.Frees }
