package telemetry

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/frontend"
	"repro/internal/geometry"
)

// Probe is the latency-recording layer: a transparent wrapper inserted
// at a layer boundary by stack.Build when
// telemetry is enabled. Its handles time a sampled fraction of their
// single-chunk operations and every batch operation into the boundary's
// Series; everything else forwards untouched. Name is forwarded
// unchanged — a probed stack is the same stack, observably.
type Probe struct {
	inner    alloc.Allocator
	sizer    alloc.ChunkSizer
	series   *Series
	interval uint32
}

// NewProbe wraps a layer boundary. interval <= 0 takes the registry
// default; callers normally go through stack.Build, which passes the
// registry's configured interval.
func NewProbe(inner alloc.Allocator, series *Series, interval int) (*Probe, error) {
	sizer, ok := inner.(alloc.ChunkSizer)
	if !ok {
		return nil, fmt.Errorf("telemetry: %s cannot report chunk sizes", inner.Name())
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Probe{inner: inner, sizer: sizer, series: series, interval: uint32(interval)}, nil
}

// Name implements alloc.Allocator (forwarded unchanged: the probe is
// invisible to naming, conformance labels and composite registries).
func (p *Probe) Name() string { return p.inner.Name() }

// Geometry implements alloc.Allocator.
func (p *Probe) Geometry() geometry.Geometry { return p.inner.Geometry() }

// OffsetSpan implements alloc.Spanner (pass-through).
func (p *Probe) OffsetSpan() uint64 { return alloc.SpanOf(p.inner) }

// Unwrap exposes the wrapped stack to generic stack walkers.
func (p *Probe) Unwrap() alloc.Allocator { return p.inner }

// Series returns the boundary's latency series.
func (p *Probe) Series() *Series { return p.series }

// Alloc implements alloc.Allocator (convenience path, unrecorded — the
// per-handle histograms are the hot-path discipline, and the
// convenience wrappers route through shared internal handles whose
// ownership the single-writer increment could not claim).
func (p *Probe) Alloc(size uint64) (uint64, bool) { return p.inner.Alloc(size) }

// Free implements alloc.Allocator (pass-through, unrecorded).
func (p *Probe) Free(offset uint64) { p.inner.Free(offset) }

// AllocBatch implements alloc.BatchAllocator (pass-through, unrecorded).
func (p *Probe) AllocBatch(size uint64, n int) []uint64 {
	return alloc.AllocBatchOf(p.inner, size, n)
}

// FreeBatch implements alloc.BatchAllocator (pass-through, unrecorded).
func (p *Probe) FreeBatch(offsets []uint64) { alloc.FreeBatchOf(p.inner, offsets) }

// ChunkSize implements alloc.ChunkSizer (pass-through).
func (p *Probe) ChunkSize(offset uint64) uint64 { return p.sizer.ChunkSize(offset) }

// Scrub implements alloc.Scrubber (pass-through).
func (p *Probe) Scrub() {
	if s, ok := p.inner.(alloc.Scrubber); ok {
		s.Scrub()
	}
}

// Stats implements alloc.Allocator (pass-through).
func (p *Probe) Stats() alloc.Stats { return p.inner.Stats() }

// LayerStats implements alloc.LayerStatser: a telemetry_* percentile
// block for this boundary, then the wrapped stack's entries. Operations
// without samples contribute no keys (the elastic layer's conditional
// pattern), so the block stays dense.
func (p *Probe) LayerStats() []alloc.LayerStats {
	merged := p.series.Merged()
	extra := map[string]uint64{}
	var total uint64
	for op := Op(0); op < numOps; op++ {
		snap := &merged[op]
		n := snap.Total()
		total += n
		if n == 0 {
			continue
		}
		pct := snap.Percentiles()
		extra["telemetry_"+op.String()+"_samples"] = n
		extra["telemetry_"+op.String()+"_p50_ns"] = pct.P50
		extra["telemetry_"+op.String()+"_p99_ns"] = pct.P99
		extra["telemetry_"+op.String()+"_p999_ns"] = pct.P999
	}
	extra["telemetry_samples"] = total
	entry := alloc.LayerStats{
		Layer: "telemetry:" + p.series.layer,
		Extra: extra,
	}
	return append([]alloc.LayerStats{entry}, alloc.StackStats(p.inner)...)
}

// NewHandle implements alloc.Allocator: a sampling, recording handle
// over an inner handle.
func (p *Probe) NewHandle() alloc.Handle {
	return &probeHandle{
		inner:    p.inner.NewHandle(),
		series:   p.series,
		set:      p.series.newSet(),
		interval: p.interval,
		cdAlloc:  p.interval,
		cdFree:   p.interval,
	}
}

// probeHandle is the per-worker face of the probe. Like every handle it
// is single-goroutine; the countdowns and histograms are owner-written.
type probeHandle struct {
	inner    alloc.Handle
	series   *Series
	set      *histSet
	interval uint32
	cdAlloc  uint32
	cdFree   uint32
}

// Alloc forwards, timing one in every interval calls. Alloc and Free
// keep separate countdowns: a workload that strictly alternates the two
// ops would otherwise alias against a shared even-interval countdown and
// only ever sample one kind.
func (h *probeHandle) Alloc(size uint64) (uint64, bool) {
	h.cdAlloc--
	if h.cdAlloc != 0 {
		return h.inner.Alloc(size)
	}
	h.cdAlloc = h.interval
	t0 := nanotime()
	off, ok := h.inner.Alloc(size)
	h.set.h[OpAlloc].Record(nanotime() - t0)
	return off, ok
}

// Free forwards, timing one in every interval calls (own countdown; see
// Alloc for the aliasing rationale).
func (h *probeHandle) Free(offset uint64) {
	h.cdFree--
	if h.cdFree != 0 {
		h.inner.Free(offset)
		return
	}
	h.cdFree = h.interval
	t0 := nanotime()
	h.inner.Free(offset)
	h.set.h[OpFree].Record(nanotime() - t0)
}

// AllocBatch implements alloc.BatchHandle, always timed: batches are
// refill-path rare and the clock amortizes over the whole batch.
func (h *probeHandle) AllocBatch(size uint64, n int) []uint64 {
	t0 := nanotime()
	offs := alloc.HandleAllocBatch(h.inner, size, n)
	h.set.h[OpAllocBatch].Record(nanotime() - t0)
	return offs
}

// FreeBatch implements alloc.BatchHandle, always timed.
func (h *probeHandle) FreeBatch(offsets []uint64) {
	t0 := nanotime()
	alloc.HandleFreeBatch(h.inner, offsets)
	h.set.h[OpFreeBatch].Record(nanotime() - t0)
}

// Stats forwards to the wrapped handle.
func (h *probeHandle) Stats() *alloc.Stats { return h.inner.Stats() }

// Flush forwards the front-end caching face (no-op when the wrapped
// handle has none): a probed caching stack keeps its Flush contract.
func (h *probeHandle) Flush() {
	if f, ok := h.inner.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// CacheStats forwards the front-end caching face's counters (zero when
// the wrapped handle is not a caching handle).
func (h *probeHandle) CacheStats() frontend.CacheStats {
	if c, ok := h.inner.(interface{ CacheStats() frontend.CacheStats }); ok {
		return c.CacheStats()
	}
	return frontend.CacheStats{}
}

// Close implements alloc.HandleCloser: fold this handle's buckets into
// the boundary's retained accumulator (the PR 7 stats discipline) and
// close the wrapped handle.
func (h *probeHandle) Close() {
	h.series.close(h.set)
	alloc.CloseHandle(h.inner)
}
