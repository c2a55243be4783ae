// Package stack assembles allocator layer stacks: any alloc.Allocator
// leaf wrapped by any combination of the composable layers — the
// multi-instance router (internal/multi) with its optional mapped
// backing (internal/mem), the elastic capacity manager
// (internal/elastic), the caching front-end (internal/frontend) and the
// size-class slab (internal/slab). Byte views of live chunks come from the
// router's mapped region (Stack.Bytes).
//
// Every layer implements the full composable contract (alloc.Allocator +
// alloc.ChunkSizer, forwarding alloc.Spanner, alloc.Scrubber and
// alloc.LayerStatser), so the layers stack in any order; Build fixes the
// canonical production order the paper's conclusions call for:
//
//	leaf variant(s) -> multi router -> elastic manager
//	                -> caching front-end -> slab
//
// A Spec is the one description of a stack: nbbs.New maps its Config
// onto one, and the registry composites ("slab+depot+multi4+4lvl-nb",
// "slab+mapped+elastic+multi+4lvl-nb", ...) are Specs parsed from their
// own labels (see specFor), which makes them first-class citizens of
// every harness in the repository: stress verification, the paper's
// workload drivers, and the conformance and differential suites build
// them by name like any leaf allocator. For those names the Config.Total
// is the global span; the multi router splits it evenly over up to four
// instances (fewer when MaxSize needs a larger share).
package stack

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/frontend"
	"repro/internal/mem"
	"repro/internal/multi"
	"repro/internal/slab"
	"repro/internal/telemetry"
)

// Spec describes a layer stack bottom-up.
type Spec struct {
	// Variant is the leaf allocator's registered label. Registered
	// composites work too: a stack can be a layer of another stack.
	Variant string
	// Per is the per-instance geometry (the global span of the stack is
	// Per.Total * Instances).
	Per alloc.Config
	// Instances >= 1 inserts the multi-instance router with the given
	// routing Policy (a 1-instance router is valid: routing introspection
	// works, fallback is a no-op); 0 builds a bare leaf.
	Instances int
	// Policy selects handle routing for the multi router.
	Policy multi.Policy
	// Elastic, when non-nil, wraps the router with the capacity manager:
	// the instance set grows and shrinks at runtime within the given
	// fleet bounds under the watermark rule (Instances is the initial
	// set). Requires Instances >= 1.
	Elastic *elastic.Config
	// Depot inserts the caching front-end: per-worker magazines at the
	// default capacity whose refills and drains cross into the back-end as
	// batches through the alloc.BatchAllocator contract. The name survives
	// from the shared magazine depot the front-end no longer has.
	Depot bool
	// Slab inserts the size-class layer above the caching front-end (or
	// whatever sits below it): requests up to slab.DefaultCutoff (clamped
	// to the geometry) are served from fixed-size runs carved out of
	// buddy chunks, larger requests pass through.
	Slab bool
	// Mapped backs each instance's offset window with platform mapped
	// memory bound to the multi router (requires Instances >= 1): windows
	// are committed while their slot is published and decommitted when it
	// retires, so an elastic shrink returns RSS to the OS (internal/mem;
	// on non-Linux platforms the portable fallback keeps the lifecycle
	// bookkeeping without the RSS effect). It is also what puts bytes
	// behind the offsets: Stack.Bytes views the region.
	Mapped bool
	// Faults routes the mapped region's lifecycle syscalls through a
	// fault injector (requires Mapped; nil injects nothing). Tests and
	// the chaos harness schedule failures on it after the build — the
	// build itself needs the initial commits to succeed.
	Faults *fault.Injector
	// Telemetry, when non-nil, inserts a latency probe above every layer
	// boundary (backend — unless elastic sits directly on the router —
	// elastic, frontend, slab) and wires each event-emitting
	// layer's flight-recorder sink into the registry's ring. Nil is the
	// disabled state: no probes, no sinks, no hot-path cost.
	Telemetry *telemetry.Registry
}

// Stack is a built layer stack. Top serves the composed contract; the
// typed layer pointers are nil for layers the spec did not request and
// exist for per-layer introspection (stats, flushes, commit maps).
type Stack struct {
	// Top is the outermost layer; use it as the allocator.
	Top alloc.Allocator
	// Backend is the leaf allocator or the multi router over the leaves —
	// the stack below any caching layers.
	Backend alloc.Allocator
	// Multi is the router layer (nil for single-instance stacks).
	Multi *multi.Multi
	// Elastic is the capacity manager (nil when Spec.Elastic was nil).
	Elastic *elastic.Manager
	// Frontend is the caching layer (nil when not Spec.Depot).
	Frontend *frontend.Allocator
	// Slab is the size-class layer (nil when not Spec.Slab).
	Slab *slab.Allocator
	// Mem is the mapped backing region (nil when not Mapped).
	Mem *mem.Region
	// Telemetry is the registry the probes and sinks feed (nil when
	// Spec.Telemetry was nil).
	Telemetry *telemetry.Registry
	// Variant is the leaf allocator label the stack was built from.
	Variant string

	scrubbable bool
}

// leafOf walks a built allocator down to its bottom-most leaf: through
// single-inner wrappers via Unwrap, and through a router via its first
// instance. Needed because a stack can be a layer of another stack
// (registered composites build as leaves), and leaf-only properties like
// scrubbability must be probed on the real leaf, not on a wrapper that
// implements Scrub by forwarding.
func leafOf(a alloc.Allocator) alloc.Allocator {
	for {
		switch v := a.(type) {
		case interface{ Unwrap() alloc.Allocator }:
			a = v.Unwrap()
		case *multi.Multi:
			a = v.Instance(0)
		default:
			return a
		}
	}
}

// Build assembles the stack described by the spec.
func Build(s Spec) (*Stack, error) {
	st := &Stack{Variant: s.Variant}
	if s.Elastic != nil {
		if s.Instances < 1 {
			return nil, fmt.Errorf("stack: elastic requires the multi router (Instances >= 1)")
		}
	}
	if s.Mapped && s.Instances < 1 {
		return nil, fmt.Errorf("stack: mapped memory requires the multi router (Instances >= 1)")
	}
	if s.Faults != nil && !s.Mapped {
		return nil, fmt.Errorf("stack: fault injection requires mapped memory (Mapped) — the injector shims the region's lifecycle syscalls")
	}
	if s.Instances >= 1 {
		m, err := multi.New(s.Variant, s.Instances, s.Per, s.Policy)
		if err != nil {
			return nil, err
		}
		if s.Mapped {
			r, err := mem.New(m.InstanceSpan(), m.Slots(), mem.WithFaultInjector(s.Faults))
			if err != nil {
				return nil, fmt.Errorf("stack: reserving mapped backing: %w", err)
			}
			if err := m.BindMemory(r); err != nil {
				return nil, fmt.Errorf("stack: binding mapped backing: %w", err)
			}
			st.Mem = r
		}
		st.Multi = m
		st.Backend = m
	} else {
		a, err := alloc.Build(s.Variant, s.Per)
		if err != nil {
			return nil, err
		}
		if _, ok := a.(alloc.ChunkSizer); !ok {
			return nil, fmt.Errorf("stack: leaf %s cannot report chunk sizes", a.Name())
		}
		st.Backend = a
	}
	_, st.scrubbable = leafOf(st.Backend).(alloc.Scrubber)

	// probe wraps the current top with a latency-recording boundary when
	// telemetry is enabled (a no-op registry-less build inserts nothing).
	probe := func(layer string) error {
		if s.Telemetry == nil {
			return nil
		}
		p, err := telemetry.NewProbe(st.Top, s.Telemetry.Series(layer))
		if err != nil {
			return err
		}
		st.Top = p
		return nil
	}

	st.Top = st.Backend
	if s.Elastic == nil {
		// With elastic the manager must sit directly on the router (it
		// grows the instance table in place), so the backend boundary is
		// observed through the elastic probe instead.
		if err := probe("backend"); err != nil {
			return nil, err
		}
	}
	if s.Elastic != nil {
		mgr, err := elastic.New(st.Multi, *s.Elastic)
		if err != nil {
			return nil, err
		}
		st.Elastic = mgr
		st.Top = mgr
		if err := probe("elastic"); err != nil {
			return nil, err
		}
	}
	if s.Depot {
		fe, err := frontend.New(st.Top, 0)
		if err != nil {
			return nil, err
		}
		st.Frontend = fe
		st.Top = fe
		if st.Elastic != nil {
			// Magazine cooperation: a shrink must be able to make workers
			// flush magazines holding the draining instance's chunks, or
			// its live count never reaches zero.
			st.Elastic.OnDrainRange(fe.DrainDepotRange)
		}
		if err := probe("frontend"); err != nil {
			return nil, err
		}
	}
	if s.Slab {
		sl, err := slab.New(st.Top, 0)
		if err != nil {
			return nil, err
		}
		st.Slab = sl
		st.Top = sl
		if st.Elastic != nil {
			// Run cooperation: a run carved from a draining instance's
			// window pins its live count like a parked magazine does, so
			// retirement needs the slab's empty runs released and its
			// handle magazines fenced for the window.
			st.Elastic.OnDrainRange(sl.DrainRange)
		}
		if err := probe("slab"); err != nil {
			return nil, err
		}
	}
	if s.Telemetry != nil {
		// Flight-recorder wiring: every lifecycle-emitting layer publishes
		// into the registry's ring under its own source label. Installed
		// after the build so the initial commits stay unrecorded (they are
		// construction, not lifecycle).
		st.Telemetry = s.Telemetry
		if st.Elastic != nil {
			st.Elastic.SetEventSink(s.Telemetry.Sink("elastic"))
		}
		if st.Mem != nil {
			st.Mem.SetEventSink(s.Telemetry.Sink("mem"))
		}
		s.Faults.SetEventSink(s.Telemetry.Sink("fault"))
		if st.Frontend != nil {
			st.Frontend.SetEventSink(s.Telemetry.Sink("depot"))
		}
		if st.Slab != nil {
			st.Slab.SetEventSink(s.Telemetry.Sink("slab"))
		}
	}
	return st, nil
}

// CanScrub reports whether the leaf allocators support metadata
// scrubbing (the wrapping layers always forward Scrub, and the caching
// front-end additionally flushes its magazines on Scrub).
func (st *Stack) CanScrub() bool { return st.scrubbable }

// Scrub quiesces the whole stack — flushing front-end magazines and
// rebuilding leaf metadata where supported — and reports whether the
// leaves scrubbed. Quiescent points only.
func (st *Stack) Scrub() bool {
	if s, ok := st.Top.(alloc.Scrubber); ok {
		s.Scrub()
	}
	return st.scrubbable
}

// Bytes returns the byte view of the live chunk at a global offset: the
// mapped region's window off / WindowSize (the router slot that owns the
// offset), sliced to the chunk size the top layer reports. The view is
// valid until the chunk is freed, and only while the stack stays reachable
// (see mem.Region.Window). It panics on a stack built without Mapped, on
// an offset outside the span and on a retired slot's window.
func (st *Stack) Bytes(off uint64) []byte {
	if st.Mem == nil {
		panic("stack: Bytes on a stack without mapped memory")
	}
	ws := st.Mem.WindowSize()
	k := off / ws
	return st.Mem.Bytes(int(k), off-k*ws, st.Top.(alloc.ChunkSizer).ChunkSize(off))
}

// LayerStats returns the stack's per-layer counters, top-down.
func (st *Stack) LayerStats() []alloc.LayerStats { return alloc.StackStats(st.Top) }

// composites is the closed list of registered composite labels over the
// paper's fastest leaf. Each label is its own description: specFor parses
// it into the Spec that Build assembles.
var composites = []string{
	"multi4+4lvl-nb",
	// The size-class layer over a bare leaf, over the caching front-end
	// (a run is one chunk from the front-end's uncached convenience
	// Alloc, so runs never touch a magazine), and over the full mapped
	// elastic stack
	// (runs participate in retirement via the DrainRange fence). The
	// front-end has no label of its own: the shipping stack puts the slab
	// over it.
	"slab+4lvl-nb",
	"slab+depot+multi4+4lvl-nb",
	"slab+mapped+elastic+multi+4lvl-nb",
	// The capacity manager over the multi router; with "mapped" every
	// instance window is backed by platform mapped memory following the
	// slot lifecycle (a retirement decommits its window, a later grow
	// recommits it).
	"elastic+multi+4lvl-nb",
	"mapped+elastic+multi+4lvl-nb",
}

// specFor parses a composite label into the Spec of the stack it names,
// sized for cfg as the global geometry. A label is '+'-separated layer
// tokens in top-down order — "slab", "depot", "mapped",
// "elastic", "multi" or "multiN" (N wanted instances; plain "multi" wants
// 4) — followed by the leaf's registered name.
//
// The router splits cfg.Total over the wanted instance count, halved
// until each instance's share can still serve MaxSize. An elastic stack
// starts from that set — so a run that never Polls sees the usual fixed
// geometry — and may retire down to one instance and grow to twice it.
func specFor(label string, cfg alloc.Config) (Spec, error) {
	toks := strings.Split(label, "+")
	s := Spec{Variant: toks[len(toks)-1], Per: cfg}
	toks = toks[:len(toks)-1]
	take := func(tok string) bool {
		if len(toks) == 0 || toks[0] != tok {
			return false
		}
		toks = toks[1:]
		return true
	}
	s.Slab = take("slab")
	s.Depot = take("depot")
	s.Mapped = take("mapped")
	elast := take("elastic")
	want := 0
	if take("multi") {
		want = 4
	} else if len(toks) > 0 {
		if n, ok := strings.CutPrefix(toks[0], "multi"); ok {
			// A malformed or non-positive N leaves the token unconsumed.
			if want, _ = strconv.Atoi(n); want > 0 {
				toks = toks[1:]
			}
		}
	}
	switch {
	case len(toks) > 0:
		return Spec{}, fmt.Errorf("stack: label %q: unknown, duplicate or out-of-order layer %q", label, toks[0])
	case (s.Mapped || elast) && want == 0:
		return Spec{}, fmt.Errorf("stack: label %q: mapped and elastic need the multi router", label)
	case want == 0:
		return s, nil
	}
	n := want
	for n > 1 && cfg.Total/uint64(n) < cfg.MaxSize {
		n /= 2
	}
	s.Instances = n
	s.Per.Total = cfg.Total / uint64(n)
	if elast {
		s.Elastic = &elastic.Config{MinInstances: 1, MaxInstances: 2 * n}
	}
	return s, nil
}

func init() {
	for _, label := range composites {
		alloc.Register(label, func(cfg alloc.Config) (alloc.Allocator, error) {
			s, err := specFor(label, cfg)
			if err != nil {
				return nil, err
			}
			st, err := Build(s)
			if err != nil {
				return nil, err
			}
			return st.Top, nil
		})
	}
}
