// Package nbbs is a non-blocking buddy system for scalable memory
// management on multi-core machines, a Go implementation of Marotta,
// Ianni, Scarselli, Pellegrini and Quaglia, "A Non-blocking Buddy System
// for Scalable Memory Allocation on Multi-core Machines" (IEEE CLUSTER
// 2018).
//
// A Buddy manages a contiguous region of Total bytes, splitting it
// recursively into power-of-two chunks between MinSize and MaxSize, and
// serves concurrent Alloc/Free requests without any lock: coordination
// happens through single-word compare-and-swap on the allocator metadata,
// so threads proceed in parallel and only retry when they genuinely
// conflicted on the same chunk.
//
// Two non-blocking layouts are provided — Variant1Lvl with one status byte
// per tree node, and Variant4Lvl (the default) packing four tree levels
// into each 64-bit word to quarter the atomic instructions per operation —
// along with the spin-lock baselines used by the paper's evaluation
// (Variant1LvlLocked, Variant4LvlLocked, VariantCloudwu,
// VariantLinuxStyle), which are handy as drop-in comparison points.
//
// The allocator trades in offsets relative to the managed region, which
// makes it a back-end in the paper's terminology: it can manage memory it
// does not own (a file, a shared segment, device memory).
//
// A Buddy is really a layer stack (see DESIGN.md): the leaf allocator can
// be wrapped by any combination of composable layers, all described by
// the one Config — Backing.Instances adds the multi-instance
// (NUMA-style) router, Frontend.Depot adds per-worker caching
// magazines with their shared depot, and Backing.Mapped backs the
// router's offset windows with real bytes so AllocBytes can hand out
// slices. The layers compose freely, including the full production
// deployment the paper's conclusions describe:
//
//	b, err := nbbs.New(nbbs.Config{
//	    Total: 1 << 24, MinSize: 64, MaxSize: 1 << 18,
//	    Backing: nbbs.BackingConfig{
//	        Instances: 4,    // one back-end per NUMA node
//	        Mapped:    true, // real memory behind the offsets
//	    },
//	    Frontend: nbbs.FrontendConfig{Depot: true}, // per-worker magazines + depot
//	})
//	...
//	h := b.NewHandle() // one per worker goroutine; caching under Frontend.Depot
//	off, ok := h.Alloc(4096)
//	...
//	h.Free(off)
//
// Handles are the intended hot-path interface: they carry the per-worker
// scan scatter state (and magazines, when cached) plus private
// statistics. The Buddy's own Alloc/Free are convenience wrappers safe
// for occasional use from any goroutine.
package nbbs

import (
	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/frontend"
	"repro/internal/geometry"
	"repro/internal/mem"
	"repro/internal/multi"
	"repro/internal/slab"
	"repro/internal/stack"
	"repro/internal/telemetry"

	// Register all allocator variants and composed stacks.
	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
)

// Variant names an allocator implementation.
type Variant = string

// The available variants, by evaluation label.
const (
	// Variant4Lvl is the non-blocking buddy system with the 4-levels
	// optimization (paper §III.D) — the default and fastest variant.
	Variant4Lvl Variant = "4lvl-nb"
	// Variant1Lvl is the non-blocking buddy system with one status word
	// per node (paper §III.A-C).
	Variant1Lvl Variant = "1lvl-nb"
	// Variant4LvlLocked and Variant1LvlLocked are the same two leaves run
	// under one spin-lock with plain stores (evaluation baselines).
	Variant4LvlLocked Variant = "4lvl-sl"
	Variant1LvlLocked Variant = "1lvl-sl"
	// VariantCloudwu is the cloudwu/buddy tree allocator under a spin-lock.
	VariantCloudwu Variant = "buddy-sl"
	// VariantLinuxStyle is a Linux-kernel-shaped free-list buddy under a
	// spin-lock.
	VariantLinuxStyle Variant = "linux-buddy"
)

// Variants lists every registered allocator label, composed stacks
// included (e.g. "slab+depot+multi4+4lvl-nb").
func Variants() []string { return alloc.Names() }

// ConfigVersion is the revision of the Config schema. Version 1 was the
// geometry-only struct (Total/MinSize/MaxSize) with every layer selected
// through functional options; version 2 grouped the full stack
// description into the sub-structs below beside those options; version 3
// makes Config the only description (New takes nothing else) and drops
// the per-CPU shard-routing and batch-refill fields of Frontend with the
// layer and knob they selected; version 4 drops Trace with the
// operation recorder it enabled, and ElasticConfig's opt-in live-chunk
// relocation settings; version 5 drops ElasticConfig.Policy, leaving the
// watermark rule as the manager's only grow/shrink decision; version 6
// drops FrontendConfig's Cached, Magazine and DepotCapacity, leaving
// Depot as the one switch for the caching front-end at its default
// sizes; version 7 drops BackingConfig's huge-page and materialize
// switches, leaving Mapped as the one way to put bytes behind the
// offsets; version 8 drops TelemetryConfig's ring-shard count, leaving
// the flight recorder one ring sized by RingSize; version 9 drops
// BackingConfig's fault-injector hook, which no caller of the facade set
// (the chaos harness injects through the internal stack description);
// version 10 fixes the tunables no shipped stack changed at their
// defaults: ElasticConfig keeps only the fleet bounds (the watermarks,
// hysteresis and grow backoff are elastic's constants), FrontendConfig
// drops SlabCutoff, and Telemetry is one switch (the sampling interval
// and ring size are telemetry's constants).
// The constant exists so embedders that persist configurations can tag
// which schema they wrote.
const ConfigVersion = 10

// RoutingPolicy selects how multi-instance handles bind to back-ends:
// RoutingRoundRobin spreads handles across instances in creation order,
// RoutingFixed pins every handle to instance 0 (the paper's Figure 12
// same-instance contention setup).
type RoutingPolicy = multi.Policy

// The routing policies, re-exported from the router layer.
const (
	RoutingRoundRobin RoutingPolicy = multi.RoundRobin
	RoutingFixed      RoutingPolicy = multi.Fixed
)

// BackingConfig describes what sits under the leaf allocators: how many
// instances, how their handles route, and whether memory backs the
// offset space. The zero value is a single instance with no real memory
// behind it — the paper's pure back-end.
type BackingConfig struct {
	// Instances deploys n independent same-geometry back-ends behind one
	// offset space (the multi-instance NUMA-style router; 0 or 1 = a
	// single leaf unless another field below requires the router).
	Instances int
	// Routing selects the handle-to-instance binding policy
	// (RoutingRoundRobin, the default, or RoutingFixed).
	Routing RoutingPolicy
	// Mapped backs each instance's offset window with platform mapped
	// memory bound to the router (implying one routed instance when
	// Instances is unset): on Linux the windows live in mmap-reserved
	// address space that is committed (mprotect + touch) while the
	// instance is published and decommitted (MADV_DONTNEED) when an
	// elastic retirement unpublishes it — the point where a shrink
	// actually returns RSS to the OS. Other platforms run a portable
	// bookkeeping fallback with identical lifecycle semantics and no RSS
	// effect. Commit accounting surfaces in LayerStats as mem_reserved /
	// mem_committed / mem_decommits / mem_recommits, and in MemStats.
	// The windows are also the bytes AllocBytes/Bytes hand out, so a byte
	// view follows the commit map.
	Mapped bool
}

// FrontendConfig describes the layers above the router: per-worker
// caching magazines with the shared depot, and the size-class slab. The
// zero value adds none of them.
type FrontendConfig struct {
	// Depot layers per-worker caching magazines with their shared depot
	// over the back-end: every NewHandle becomes a caching handle, frees
	// park chunks in magazines served back to later allocations, so most
	// operations never reach the back-end. An overflowing magazine is
	// parked whole in a per-size-class global depot in O(1), and a worker
	// running dry grabs a full one back the same way — the cross-thread
	// hand-off cost of remote frees becomes one pointer swap per magazine
	// instead of a back-end round trip per chunk. Depot misses and
	// overflows cross into the back-end as batches (AllocBatch/FreeBatch).
	// A caching handle does not detect a double free: the second Free
	// parks the offset again and two later Allocs return it to two
	// owners. Slab objects and the Buddy's own Free still panic.
	Depot bool
	// Slab layers the size-class slab over the stack (above the caching
	// front-end, when present): requests up to the cutoff are served from
	// fixed-size object runs carved out of buddy chunks — the class table
	// interleaves half-steps between the powers of two, cutting worst-case
	// internal fragmentation from 2x to 1.5x, and one buddy operation
	// provisions hundreds of objects. Larger requests pass through
	// untouched. The cutoff is 2 KiB, clamped to the geometry.
	Slab bool
}

// Config describes a buddy allocator stack (schema ConfigVersion).
//
// The geometry triple sizes each instance: all three values must be
// powers of two with MinSize <= MaxSize <= Total, and with multiple
// instances the global offset space is Instances times Total. The
// remaining fields select and tune the composable layers, grouped by
// where they sit in the stack; every zero value means "off" or "default",
// so the minimal Config{Total, MinSize, MaxSize} builds the bare
// single-instance allocator of the paper.
type Config struct {
	// Total is the managed region size in bytes (per instance).
	Total uint64
	// MinSize is the allocation unit; requests round up to it.
	MinSize uint64
	// MaxSize caps a single allocation.
	MaxSize uint64

	// Variant selects the leaf allocator implementation ("" =
	// Variant4Lvl). Registered composite labels are accepted too.
	Variant Variant
	// Backing configures the router and the memory behind it.
	Backing BackingConfig
	// Elastic, when non-nil, wraps the router with the elastic capacity
	// manager (implying one routed instance when Backing.Instances is
	// unset): the instance set grows under allocation pressure (up to
	// MaxInstances) and drains and retires idle instances (down to
	// MinInstances) — the deployment for diurnal or bursty workloads that
	// a fixed region either over-provisions or OOMs. Drive the lifecycle
	// with Buddy.Elastic().Poll()
	// (deterministic) or Buddy.Elastic().Start(interval) (background).
	Elastic *ElasticConfig
	// Frontend configures the layers above the router.
	Frontend FrontendConfig
	// Telemetry builds the stack with the telemetry layer: latency probes
	// at every layer boundary feeding per-handle lock-free histograms
	// (one in 256 single-chunk operations sampled, folded into retained
	// accumulators on handle Close), and a 1024-event flight-recorder
	// ring the lifecycle layers (elastic, mapped memory, depot, slab)
	// publish into. Retrieve the registry with Buddy.Telemetry. False
	// leaves telemetry out entirely, and the stack pays nothing. Overhead
	// is bounded by sampling — see DESIGN.md, "Observability".
	Telemetry bool
}

// Stats are the operation counters aggregated across an instance's
// handles; see the field docs in the paper-reproduction harness for how
// RMW/CASFail/Retries relate to the algorithm.
type Stats = alloc.Stats

// LayerStats is one layer's contribution to a stack's counters; see
// Buddy.LayerStats.
type LayerStats = alloc.LayerStats

// CacheStats counts front-end magazine behaviour: the handles NewHandle
// returns on a stack built with Frontend.Depot report it via CacheStats().
type CacheStats = frontend.CacheStats

// Handle is a per-worker allocation interface; obtain one per goroutine
// from Buddy.NewHandle. It is not safe for concurrent use.
type Handle = alloc.Handle

// Buddy is a buddy-system allocator stack: a leaf variant, optionally
// wrapped by the multi-instance router, the elastic manager, the caching
// front-end and the slab.
type Buddy struct {
	st *stack.Stack
}

// ElasticConfig is the fleet bounds of the elastic capacity manager; see
// Config.Elastic. Zero fields take the documented defaults.
type ElasticConfig = elastic.Config

// ElasticManager is the capacity manager layer; see Buddy.Elastic.
type ElasticManager = elastic.Manager

// Typed capacity-refusal sentinels of the elastic manager, re-exported
// so callers can errors.Is on ElasticManager.Grow failures: ErrAtCap is
// the policy refusing at MaxInstances, ErrBackpressure is the manager
// holding off after an environmental grow failure (the wrapped chain
// carries the underlying cause).
var (
	ErrAtCap        = elastic.ErrAtCap
	ErrBackpressure = elastic.ErrBackpressure
)

// TelemetryRegistry is the always-on telemetry root of a stack built
// with Config.Telemetry: per-layer-boundary latency percentiles via Latencies,
// the flight-recorder event ring via Ring, an expvar/Prometheus-text
// HTTP handler via Handler (internal/telemetry).
type TelemetryRegistry = telemetry.Registry

// TelemetryEvent is one flight-recorder entry; see TelemetryRegistry.Ring.
type TelemetryEvent = telemetry.Event

// New builds the buddy allocator stack its Config describes. Config is
// the only description of a stack, and this is where it becomes the
// internal stack.Spec — including the implication rules: an empty Variant
// is Variant4Lvl, and Elastic or Backing.Mapped need the router, so they
// imply one routed instance when Backing.Instances is unset.
func New(cfg Config) (*Buddy, error) {
	s := stack.Spec{
		Variant:   cfg.Variant,
		Per:       alloc.Config{Total: cfg.Total, MinSize: cfg.MinSize, MaxSize: cfg.MaxSize},
		Instances: cfg.Backing.Instances,
		Policy:    cfg.Backing.Routing,
		Mapped:    cfg.Backing.Mapped,
		Depot:     cfg.Frontend.Depot,
		Slab:      cfg.Frontend.Slab,
	}
	if s.Variant == "" {
		s.Variant = Variant4Lvl
	}
	if cfg.Elastic != nil {
		ec := *cfg.Elastic
		s.Elastic = &ec
	}
	if (s.Elastic != nil || s.Mapped) && s.Instances < 1 {
		s.Instances = 1
	}
	if cfg.Telemetry {
		s.Telemetry = telemetry.New()
	}
	st, err := stack.Build(s)
	if err != nil {
		return nil, err
	}
	return &Buddy{st: st}, nil
}

// Name returns the composed stack label, e.g. "depot+multi[4x 4lvl-nb]".
func (b *Buddy) Name() string { return b.st.Top.Name() }

// Variant returns the leaf implementation label of this instance.
func (b *Buddy) Variant() Variant { return b.st.Variant }

// Total returns the global offset-space size in bytes: the managed
// region times the instance count.
func (b *Buddy) Total() uint64 { return alloc.SpanOf(b.st.Top) }

// MinSize returns the allocation unit.
func (b *Buddy) MinSize() uint64 { return b.st.Top.Geometry().MinSize }

// MaxSize returns the largest single allocation.
func (b *Buddy) MaxSize() uint64 { return b.st.Top.Geometry().MaxSize }

// Instances returns the number of composed back-end instances (1 for a
// stack without the router).
func (b *Buddy) Instances() int {
	if b.st.Multi == nil {
		return 1
	}
	return b.st.Multi.Instances()
}

// InstanceOf returns which back-end instance serves an offset.
func (b *Buddy) InstanceOf(offset uint64) int {
	if b.st.Multi == nil {
		return 0
	}
	return b.st.Multi.InstanceOf(offset)
}

// Alloc reserves a chunk of at least size bytes and returns its offset
// within the managed region; ok is false when the instance cannot serve
// the request. Offset 0 is a valid allocation.
func (b *Buddy) Alloc(size uint64) (offset uint64, ok bool) { return b.st.Top.Alloc(size) }

// Free releases a previously allocated chunk by its offset. Freeing an
// offset that is not currently allocated panics.
func (b *Buddy) Free(offset uint64) { b.st.Top.Free(offset) }

// NewHandle returns a per-worker handle; use one handle per goroutine on
// hot paths. Under Frontend.Depot the handle caches in per-size-class
// magazines.
func (b *Buddy) NewHandle() Handle { return b.st.Top.NewHandle() }

// AllocBatch reserves up to n chunks of at least size bytes in one call
// through the stack's bulk-transfer contract: layers with native batching
// (the non-blocking leaves, the router, the depot) serve it in one
// crossing each, the rest are served chunk-at-a-time. A short (possibly
// empty) result means the instance could not serve the remainder.
func (b *Buddy) AllocBatch(size uint64, n int) []uint64 {
	return alloc.AllocBatchOf(b.st.Top, size, n)
}

// FreeBatch releases a batch of previously allocated chunks in one call;
// like Free, releasing an offset that is not currently allocated panics.
func (b *Buddy) FreeBatch(offsets []uint64) { alloc.FreeBatchOf(b.st.Top, offsets) }

// DepotStats are the shared magazine depot's counters; see Buddy.DepotStats.
type DepotStats = frontend.DepotStats

// DepotStats returns the depot counters of a stack built with
// Frontend.Depot; ok is false otherwise. Quiescent points only.
func (b *Buddy) DepotStats() (DepotStats, bool) {
	if b.st.Frontend == nil {
		return DepotStats{}, false
	}
	return b.st.Frontend.Depot().Stats(), true
}

// Stats aggregates operation counters across all handles at the top
// layer of the stack; call it at quiescent points (not concurrently with
// operations).
func (b *Buddy) Stats() Stats { return b.st.Top.Stats() }

// LayerStats returns per-layer counters top-down — front-end magazine
// hits and spills, router fallbacks, back-end RMW/CAS traffic — so each
// layer's contribution is visible separately. Quiescent points only.
func (b *Buddy) LayerStats() []LayerStats { return b.st.LayerStats() }

// ChunkSize reports the reserved (rounded-up) size of a live allocation.
func (b *Buddy) ChunkSize(offset uint64) uint64 {
	return b.st.Top.(alloc.ChunkSizer).ChunkSize(offset)
}

// Bytes returns the memory window of a live allocation as a slice; the
// instance must have been built with Backing.Mapped, and the offset must
// lie inside Total. The slice is valid until the chunk is freed, and only
// while the Buddy stays reachable — it views mapped memory that is
// unmapped when the stack is collected, so hold the Buddy for as long as
// any of its byte windows.
func (b *Buddy) Bytes(offset uint64) []byte { return b.st.Bytes(offset) }

// AllocBytes combines Alloc and Bytes: it reserves at least size bytes and
// returns the chunk's window. The returned offset is the Free token. Like
// Bytes it needs Backing.Mapped.
func (b *Buddy) AllocBytes(size uint64) (buf []byte, offset uint64, ok bool) {
	if b.st.Mem == nil {
		panic("nbbs: AllocBytes on a stack without Backing.Mapped")
	}
	off, ok := b.st.Top.Alloc(size)
	if !ok {
		return nil, 0, false
	}
	return b.st.Bytes(off), off, true
}

// Scrub quiesces the stack — flushing front-end magazines and scrubbing
// leaf metadata — and reports whether the leaf variant supports
// scrubbing.
func (b *Buddy) Scrub() bool { return b.st.Scrub() }

// Multi exposes the multi-instance router layer (nil for a stack without
// routed instances). Router-level handles — including NewHandleOn for
// explicit NUMA-style pinning — bypass any caching layers
// stacked above it.
func (b *Buddy) Multi() *Multi { return b.st.Multi }

// Elastic exposes the capacity manager (nil unless Config.Elastic was set).
// Poll drives one grow/drain/retire decision step; Start/Stop run the
// policy on a background interval; Counters and Utilization report the
// lifecycle state.
func (b *Buddy) Elastic() *ElasticManager { return b.st.Elastic }

// Telemetry exposes the telemetry registry (nil unless Config.Telemetry
// was set): latency percentiles per layer boundary, the
// flight-recorder ring, and the HTTP/expvar exporters.
func (b *Buddy) Telemetry() *TelemetryRegistry { return b.st.Telemetry }

// SlabLayer is the size-class slab layer; see Buddy.Slab.
type SlabLayer = slab.Allocator

// Slab returns the slab layer for introspection (per-class occupancy
// via ClassInfos, the fragmentation gauge via FragBytes), or nil when
// the stack was built without Frontend.Slab.
func (b *Buddy) Slab() *SlabLayer { return b.st.Slab }

// MemStats is the mapped backing region's commit accounting; see
// Buddy.MemStats.
type MemStats = mem.Stats

// MemRegion is the mapped backing region layer; see Buddy.Memory.
type MemRegion = mem.Region

// Mapped reports whether the stack was built with Backing.Mapped.
func (b *Buddy) Mapped() bool { return b.st.Mem != nil }

// MappedBacking reports whether this platform's mapped-memory backend
// really maps and unmaps pages (Linux — decommits return RSS to the OS)
// or runs the portable bookkeeping fallback.
func MappedBacking() bool { return mem.Mapped() }

// Memory exposes the mapped backing region (nil unless built with
// Backing.Mapped) — per-window commit states via CommitMap, lifecycle
// accounting via Stats.
func (b *Buddy) Memory() *MemRegion { return b.st.Mem }

// MemStats returns the mapped backing region's commit accounting; ok is
// false for stacks built without Backing.Mapped.
func (b *Buddy) MemStats() (MemStats, bool) {
	if b.st.Mem == nil {
		return MemStats{}, false
	}
	return b.st.Mem.Stats(), true
}

// Multi is the multi-instance router layer: a set of same-geometry
// instances behind one offset space, with per-handle preferred-instance
// routing and fallback — the deployment the paper describes for NUMA
// machines.
type Multi = multi.Multi

// Geometry describes the derived tree shape of a configuration without
// building an instance (useful for capacity planning).
func (c Config) Geometry() (depth, maxLevel int, err error) {
	g, err := geometry.New(c.Total, c.MinSize, c.MaxSize)
	if err != nil {
		return 0, 0, err
	}
	return g.Depth, g.MaxLevel, nil
}
