package telemetry

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/frontend"
)

// Probe is the latency-recording layer: a transparent wrapper inserted
// at a layer boundary by stack.Build when
// telemetry is enabled. Its handles time a sampled fraction of their
// single-chunk operations and every batch operation into the boundary's
// Series; everything else, Name included, passes through the embedded
// alloc.Layer — a probed stack is the same stack, observably. The
// allocator-level convenience ops stay unrecorded: the per-handle
// histograms are the hot-path discipline, and the convenience wrappers
// route through shared internal handles whose ownership the
// single-writer increment could not claim.
type Probe struct {
	alloc.Layer
	series *Series
}

// NewProbe wraps a layer boundary; callers normally go through
// stack.Build.
func NewProbe(inner alloc.Allocator, series *Series) (*Probe, error) {
	layer, err := alloc.NewLayer(inner)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	return &Probe{Layer: layer, series: series}, nil
}

// Series returns the boundary's latency series.
func (p *Probe) Series() *Series { return p.series }

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
	return append([]alloc.LayerStats{entry}, p.Layer.LayerStats()...)
}

// NewHandle implements alloc.Allocator: a sampling, recording handle
// over an inner handle.
func (p *Probe) NewHandle() alloc.Handle {
	return &probeHandle{
		inner:   p.Layer.NewHandle(),
		series:  p.series,
		set:     p.series.newSet(),
		cdAlloc: SampleInterval,
		cdFree:  SampleInterval,
	}
}

// probeHandle is the per-worker face of the probe. Like every handle it
// is single-goroutine; the countdowns and histograms are owner-written.
type probeHandle struct {
	inner   alloc.Handle
	series  *Series
	set     *histSet
	cdAlloc uint32
	cdFree  uint32
}

// Alloc forwards, timing one in every SampleInterval calls. Alloc and Free
// keep separate countdowns: a workload that strictly alternates the two
// ops would otherwise alias against a shared even-interval countdown and
// only ever sample one kind.
func (h *probeHandle) Alloc(size uint64) (uint64, bool) {
	h.cdAlloc--
	if h.cdAlloc != 0 {
		return h.inner.Alloc(size)
	}
	h.cdAlloc = SampleInterval
	t0 := nanotime()
	off, ok := h.inner.Alloc(size)
	h.set.h[OpAlloc].Record(nanotime() - t0)
	return off, ok
}

// Free forwards, timing one in every SampleInterval calls (own countdown; see
// Alloc for the aliasing rationale).
func (h *probeHandle) Free(offset uint64) {
	h.cdFree--
	if h.cdFree != 0 {
		h.inner.Free(offset)
		return
	}
	h.cdFree = SampleInterval
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
