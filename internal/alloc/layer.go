package alloc

import (
	"fmt"

	"repro/internal/geometry"
)

// Layer is the pass-through base of a wrapping layer. Embedded in a
// wrapper, it forwards the whole composable contract — Allocator,
// ChunkSizer, Spanner, Scrubber, LayerStatser, BatchAllocator and Unwrap
// — to the wrapped allocator, so the wrapper declares only the methods
// whose behaviour it changes. An override that extends rather than
// replaces reaches the layer below through the embedded field
// (w.Layer.Scrub(), w.Layer.LayerStats(), ...).
type Layer struct {
	inner Allocator
	sizer ChunkSizer
}

// NewLayer builds the base over inner, which must implement ChunkSizer:
// a wrapper answers ChunkSize for the stack, and the caching layers
// classify frees by the answer of the layer below.
func NewLayer(inner Allocator) (Layer, error) {
	sizer, ok := inner.(ChunkSizer)
	if !ok {
		return Layer{}, fmt.Errorf("%s cannot report chunk sizes", inner.Name())
	}
	return Layer{inner: inner, sizer: sizer}, nil
}

// Name implements Allocator.
func (l *Layer) Name() string { return l.inner.Name() }

// Geometry implements Allocator (the per-instance geometry below).
func (l *Layer) Geometry() geometry.Geometry { return l.inner.Geometry() }

// OffsetSpan implements Spanner: the wrapped stack's global offset space.
func (l *Layer) OffsetSpan() uint64 { return SpanOf(l.inner) }

// Unwrap exposes the wrapped allocator to stack walkers such as Find.
func (l *Layer) Unwrap() Allocator { return l.inner }

// ChunkSize implements ChunkSizer.
func (l *Layer) ChunkSize(offset uint64) uint64 { return l.sizer.ChunkSize(offset) }

// Alloc implements Allocator.
func (l *Layer) Alloc(size uint64) (uint64, bool) { return l.inner.Alloc(size) }

// Free implements Allocator.
func (l *Layer) Free(offset uint64) { l.inner.Free(offset) }

// AllocBatch implements BatchAllocator, natively when the wrapped
// allocator batches.
func (l *Layer) AllocBatch(size uint64, n int) []uint64 { return AllocBatchOf(l.inner, size, n) }

// FreeBatch implements BatchAllocator.
func (l *Layer) FreeBatch(offsets []uint64) { FreeBatchOf(l.inner, offsets) }

// NewHandle implements Allocator: the wrapped allocator's own handle.
func (l *Layer) NewHandle() Handle { return l.inner.NewHandle() }

// Stats implements Allocator.
func (l *Layer) Stats() Stats { return l.inner.Stats() }

// Scrub implements Scrubber (a no-op over a layer that cannot scrub).
func (l *Layer) Scrub() {
	if s, ok := l.inner.(Scrubber); ok {
		s.Scrub()
	}
}

// LayerStats implements LayerStatser: the wrapped stack's entries. A
// wrapper with counters of its own prepends its entry to them.
func (l *Layer) LayerStats() []LayerStats { return StackStats(l.inner) }

// Find walks a stack outside-in along the Unwrap chain and returns its
// first layer of type T, or the zero T (nil for the pointer types layers
// are) when the stack has none.
func Find[T Allocator](a Allocator) T {
	for a != nil {
		if t, ok := a.(T); ok {
			return t
		}
		u, ok := a.(interface{ Unwrap() Allocator })
		if !ok {
			break
		}
		a = u.Unwrap()
	}
	var zero T
	return zero
}
