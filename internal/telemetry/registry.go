package telemetry

import (
	"sync"
)

// SampleInterval is the per-handle sampling countdown: one in every N
// single-chunk operations is timed. Sampling is what keeps the
// timed path inside the overhead budget (<3% of a back-end op, gated in
// CI; see DESIGN.md "Observability"): an untimed operation costs one
// decrement and one forwarding call, a timed one adds two clock reads —
// at 256 the clock cost amortizes to a fraction of a nanosecond per op,
// leaving the probe's fixed interception cost (a second interface
// dispatch) as the floor. Batch operations are always timed — they are
// refill-path rare and amortize the clock over the whole batch.
const SampleInterval = 256

// RingSize is the event capacity of the flight-recorder ring.
const RingSize = 1024

// Registry is one stack's telemetry root: the ordered set of
// layer-boundary latency series plus the flight-recorder ring. A nil
// *Registry is the disabled state — Build inserts no probes and wires
// no event sinks, so the hot path pays nothing.
type Registry struct {
	ring *Ring

	mu     sync.Mutex
	series []*Series
}

// New builds a registry.
func New() *Registry { return &Registry{ring: newRing(RingSize)} }

// Ring returns the flight-recorder event ring.
func (r *Registry) Ring() *Ring { return r.ring }

// Sink returns a publish closure bound to a source label, the shape the
// event-emitting layers (elastic, fault, slab, depot, mem) accept —
// they depend on nothing in this package.
func (r *Registry) Sink(source string) func(event string, a, b uint64) {
	return func(event string, a, b uint64) { r.ring.Publish(source, event, a, b) }
}

// Series returns the latency series for a layer boundary, creating it
// on first use. Build calls it once per probe, bottom-up.
func (r *Registry) Series(layer string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.series {
		if s.layer == layer {
			return s
		}
	}
	s := &Series{layer: layer}
	r.series = append(r.series, s)
	return s
}

// OpLatency is one operation's merged summary at one layer boundary.
type OpLatency struct {
	Op      string `json:"op"`
	Samples uint64 `json:"samples"`
	Percentiles
}

// LayerLatency is one layer boundary's merged summary.
type LayerLatency struct {
	Layer string      `json:"layer"`
	Ops   []OpLatency `json:"ops"`
}

// Latencies merges every boundary's live handles and retained
// accumulators into percentile summaries, top-down (probes register
// bottom-up; the report reverses them so it reads like LayerStats).
// Quiescent points preferred; concurrent records may be partially seen.
func (r *Registry) Latencies() []LayerLatency {
	r.mu.Lock()
	series := append([]*Series(nil), r.series...)
	r.mu.Unlock()
	out := make([]LayerLatency, 0, len(series))
	for i := len(series) - 1; i >= 0; i-- {
		s := series[i]
		merged := s.Merged()
		ll := LayerLatency{Layer: s.layer}
		for op := Op(0); op < numOps; op++ {
			snap := &merged[op]
			ll.Ops = append(ll.Ops, OpLatency{
				Op:          op.String(),
				Samples:     snap.Total(),
				Percentiles: snap.Percentiles(),
			})
		}
		out = append(out, ll)
	}
	return out
}

// Series is the latency accumulator of one layer boundary: the retained
// buckets of closed handles plus the live handles still recording.
type Series struct {
	layer string

	mu       sync.Mutex
	retained [numOps]Snapshot
	live     []*histSet
}

// Layer returns the boundary label.
func (s *Series) Layer() string { return s.layer }

// histSet is one handle's histograms, one per operation.
type histSet struct {
	h [numOps]Histogram
}

// newSet registers a fresh per-handle histogram set.
func (s *Series) newSet() *histSet {
	hs := &histSet{}
	s.mu.Lock()
	s.live = append(s.live, hs)
	s.mu.Unlock()
	return hs
}

// close folds a handle's buckets into the retained accumulator and
// drops it from the live list (swap-remove, same shape as the layers'
// handle registries), so the series stays flat under worker churn.
func (s *Series) close(hs *histSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for op := range hs.h {
		hs.h[op].AddTo(&s.retained[op])
	}
	for i, l := range s.live {
		if l == hs {
			s.live[i] = s.live[len(s.live)-1]
			s.live[len(s.live)-1] = nil
			s.live = s.live[:len(s.live)-1]
			break
		}
	}
}

// Merged returns retained plus live buckets per operation.
func (s *Series) Merged() [numOps]Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.retained
	for _, hs := range s.live {
		for op := range hs.h {
			hs.h[op].AddTo(&out[op])
		}
	}
	return out
}
