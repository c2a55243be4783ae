// Package frontend implements a caching front-end allocator layered over
// any back-end instance — the composition the paper's conclusions point
// to as future work ("embed our solution in front-end allocators allowing
// them to interact more frequently with the back-end allocator, thanks to
// its increased scalability").
//
// Each worker handle keeps small per-size-class magazines of chunks
// obtained from the back-end: allocations are served from the magazine
// when possible and frees refill it. Full and empty magazines are
// exchanged whole with a shared per-size-class depot in O(1) — the
// magazine/depot discipline of cached kernel allocators [3] — and only
// depot misses (batch refill) and depot overflows (batch drain) cross
// into the back-end, through the alloc.BatchAllocator bulk contract (see
// DESIGN.md, "The bulk-transfer contract and the magazine depot"). The
// interesting property in combination with the non-blocking back-end is
// that those crossings — the cross-thread contention points of a cached
// design — hit an allocator that does not serialize them.
//
// The front-end is a composable layer (see DESIGN.md): it works over any
// alloc.Allocator that implements alloc.ChunkSizer — a leaf variant, a
// multi-instance router, a traced stack — and forwards the rest of the
// layer contract through the embedded alloc.Layer, so further layers
// stack on top of it.
//
// A caching handle does not detect a double free: Handle.Free parks the
// offset in a magazine without asking the back-end, which still counts
// the chunk as live, so a second Free parks it again and two later
// Allocs return the same offset. The pass-through convenience Free still
// panics (DESIGN.md, "Failure semantics").
package frontend

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/alloc"
	"repro/internal/geometry"
)

// DefaultMagazine is the per-class magazine capacity.
const DefaultMagazine = 32

// Allocator is a caching front-end over a back-end instance.
type Allocator struct {
	alloc.Layer
	geo    geometry.Geometry
	magCap int
	// depot is the shared magazine exchange: overflowing handles park
	// full magazines there in O(1), and dry handles grab them back.
	// refill is the batch size of a back-end refill after a depot miss.
	depot  *Depot
	refill int

	reg         alloc.Registry[*Handle]
	closedCache CacheStats // guarded by the registry lock

	convMu sync.Mutex
	conv   alloc.Stats // ops served by the pass-through convenience path

	// fence is armed by DrainDepotRange; handles flush magazines
	// overlapping a retiring window on their next operation.
	fence alloc.DrainFence
}

// Option tunes the front-end beyond the magazine capacity.
type Option func(*Allocator)

// WithDepot sets the depot's bound on full magazines retained per class
// (0 = DefaultDepotCapacity).
func WithDepot(capacity int) Option {
	return func(a *Allocator) {
		if capacity > 0 {
			a.depot.cap = capacity
		}
	}
}

// New layers a front-end over the given back-end, which must implement
// alloc.ChunkSizer (every layer in this repository does): frees enter the
// magazine of the size class the chunk was reserved at, which only the
// back-end metadata knows.
func New(backend alloc.Allocator, magCap int, opts ...Option) (*Allocator, error) {
	layer, err := alloc.NewLayer(backend)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	if magCap <= 0 {
		magCap = DefaultMagazine
	}
	geo := backend.Geometry()
	a := &Allocator{
		Layer: layer, geo: geo, magCap: magCap,
		depot:  newDepot(geo.Depth - geo.MaxLevel + 1),
		refill: max(1, magCap/2),
	}
	for _, o := range opts {
		o(a)
	}
	return a, nil
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "depot+" + a.Layer.Name() }

// Depot exposes the shared magazine depot.
func (a *Allocator) Depot() *Depot { return a.depot }

// Alloc implements alloc.Allocator by passing through to the back-end:
// caching only pays per-worker, so the convenience path does not cache.
func (a *Allocator) Alloc(size uint64) (uint64, bool) {
	off, ok := a.Layer.Alloc(size)
	a.convMu.Lock()
	if ok {
		a.conv.Allocs++
	} else {
		a.conv.AllocFails++
	}
	a.convMu.Unlock()
	return off, ok
}

// Free implements alloc.Allocator (pass-through, see Alloc).
func (a *Allocator) Free(offset uint64) {
	a.Layer.Free(offset)
	a.convMu.Lock()
	a.conv.Frees++
	a.convMu.Unlock()
}

// AllocBatch implements alloc.BatchAllocator: like the convenience Alloc,
// the pass-through path does not cache, it forwards the bulk request to
// the back-end (natively or via the shim).
func (a *Allocator) AllocBatch(size uint64, n int) []uint64 {
	out := a.Layer.AllocBatch(size, n)
	a.convMu.Lock()
	a.conv.Allocs += uint64(len(out))
	if len(out) == 0 && n > 0 {
		a.conv.AllocFails++
	}
	a.convMu.Unlock()
	return out
}

// FreeBatch implements alloc.BatchAllocator (pass-through, see AllocBatch).
func (a *Allocator) FreeBatch(offsets []uint64) {
	a.Layer.FreeBatch(offsets)
	a.convMu.Lock()
	a.conv.Frees += uint64(len(offsets))
	a.convMu.Unlock()
}

// Stats implements alloc.Allocator with this layer's view of the traffic:
// the operations served at the front-end (magazine hits included),
// aggregated across handles and the convenience path. The back-end's own
// counters — how much traffic the magazines did NOT absorb — remain
// available via Unwrap().Stats() and LayerStats. Quiescent points only.
func (a *Allocator) Stats() alloc.Stats {
	total := a.reg.Stats()
	a.convMu.Lock()
	total.Add(a.conv)
	a.convMu.Unlock()
	return total
}

// Handles returns the number of registered (not yet closed) handles — a
// diagnostic for the handle-leak regression tests.
func (a *Allocator) Handles() int { return a.reg.Len() }

// CacheTotals aggregates the magazine counters of every handle created so
// far; quiescent points only.
func (a *Allocator) CacheTotals() CacheStats {
	var total CacheStats
	a.reg.Walk(func(live []*Handle) {
		total = a.closedCache
		for _, h := range live {
			total.add(h.cache)
		}
	})
	return total
}

// Scrub implements alloc.Scrubber for the stack: it flushes every
// handle's magazines back to the back-end, drains the depot (depot
// residency does not survive a quiesce — every parked magazine goes back
// down, each as one batch), then forwards Scrub inward. Magazines are
// per-worker state, so this is strictly quiescent-only — no handle may be
// in use concurrently.
func (a *Allocator) Scrub() {
	var handles []*Handle
	a.reg.Walk(func(live []*Handle) { handles = append(handles, live...) })
	for _, h := range handles {
		h.Flush()
	}
	for _, mag := range a.depot.DrainAll() {
		a.Layer.FreeBatch(mag)
	}
	a.Layer.Scrub()
}

// DrainDepotRange evicts every depot-parked magazine holding a chunk of
// the global offset window [lo, hi) and batch-frees it to the back-end —
// the elastic manager's drain hook: without it, magazines idling in the
// depot would pin a draining instance's live count above zero forever.
// Unlike Scrub this is safe concurrently with traffic: the depot is
// internally locked and the frees go down the thread-safe batched
// convenience path.
//
// Per-worker handle magazines are single-owner state, so they cannot be
// flushed from here; instead the call arms the drain fence — the window
// is recorded and the drain epoch bumped, and each handle flushes its
// overlapping magazines on its own next operation. The elastic manager
// re-invokes the hook on every Poll, so retirement converges as soon as
// every parking worker has performed one operation — no idle-worker
// churn or quiescent Scrub required.
func (a *Allocator) DrainDepotRange(lo, hi uint64) {
	// No front-end stats here: a drained chunk's free was counted when a
	// worker parked it, exactly like the Scrub-path depot drain.
	for _, mag := range a.depot.DrainRange(lo, hi) {
		a.Layer.FreeBatch(mag)
	}
	a.fence.Arm(lo, hi)
}

// LayerStats implements alloc.LayerStatser: the front-end entry with its
// magazine counters, then the wrapped stack's entries.
func (a *Allocator) LayerStats() []alloc.LayerStats {
	cache := a.CacheTotals()
	ds := a.depot.Stats()
	entry := alloc.LayerStats{
		Layer: "depot",
		Stats: a.Stats(),
		Extra: map[string]uint64{
			"hits":                  cache.Hits,
			"misses":                cache.Misses,
			"spills":                cache.Spills,
			"refills":               cache.Refills,
			"depot_full_pushes":     ds.FullPushes,
			"depot_full_pops":       ds.FullPops,
			"depot_pop_misses":      ds.PopMisses,
			"depot_drains":          ds.Drains,
			"depot_drained_chunks":  ds.DrainedChunks,
			"depot_batch_refills":   ds.Refills,
			"depot_refilled_chunks": ds.RefilledChunks,
			"depot_retained_chunks": uint64(a.depot.Retained()),
		},
	}
	return append([]alloc.LayerStats{entry}, a.Layer.LayerStats()...)
}

// NewHandle implements alloc.Allocator.
func (a *Allocator) NewHandle() alloc.Handle {
	classes := a.geo.Depth - a.geo.MaxLevel + 1
	h := &Handle{
		a:     a,
		back:  a.Layer.NewHandle(),
		mags:  make([][]uint64, classes),
		epoch: a.fence.Epoch(),
	}
	a.reg.Add(h)
	return h
}

// CacheStats counts magazine behaviour per handle.
type CacheStats struct {
	Hits    uint64 // allocations served from a magazine
	Misses  uint64 // allocations the depot could not serve (one back-end refill each)
	Spills  uint64 // chunks drained or flushed from magazines to the back-end
	Refills uint64 // frees absorbed into a magazine
}

func (c *CacheStats) add(o CacheStats) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Spills += o.Spills
	c.Refills += o.Refills
}

// Handle is the per-worker caching face. It is not safe for concurrent
// use. Call Flush before dropping a handle, or its cached chunks stay
// reserved in the back-end until the allocator-level Scrub reclaims them.
type Handle struct {
	a     *Allocator
	back  alloc.Handle
	mags  [][]uint64 // per level-class stacks of cached offsets
	stats alloc.Stats
	cache CacheStats
	epoch uint64
	// Workers' handles are allocated back to back and every operation
	// writes the counters, so the pad rounds the handle up to three whole
	// cache lines and no worker's counters share a line with the next
	// handle's fields.
	_ [48]byte
}

func (h *Handle) class(level int) int { return level - h.a.geo.MaxLevel }

// syncDrain catches the handle up with the drain fence: every magazine
// holding a chunk inside a recorded draining window flushes to the
// back-end, so the draining instance's live count can reach zero while
// this worker stays idle-but-alive afterwards.
func (h *Handle) syncDrain(epoch uint64) {
	h.epoch = epoch
	wins := h.a.fence.Windows()
	for cls, mag := range h.mags {
		if slices.ContainsFunc(mag, wins.Contains) {
			alloc.HandleFreeBatch(h.back, mag)
			h.cache.Spills += uint64(len(mag))
			h.mags[cls] = mag[:0]
		}
	}
}

// checkDrain is the one-atomic-load fast path of the drain fence.
func (h *Handle) checkDrain() {
	if e := h.a.fence.Epoch(); e != h.epoch {
		h.syncDrain(e)
	}
}

// Alloc serves from the size class magazine. An empty magazine is
// exchanged for a full one from the depot in O(1), and only a depot miss
// reaches the back-end — as one batch refill.
func (h *Handle) Alloc(size uint64) (uint64, bool) {
	h.checkDrain()
	if size > h.a.geo.MaxSize {
		h.stats.AllocFails++
		return 0, false
	}
	level := h.a.geo.LevelForSize(size)
	cls := h.class(level)
	if mag := h.mags[cls]; len(mag) > 0 {
		off := mag[len(mag)-1]
		h.mags[cls] = mag[:len(mag)-1]
		h.cache.Hits++
		h.stats.Allocs++
		return off, true
	}
	d := h.a.depot
	if mag, ok := d.ExchangeFull(cls, h.mags[cls]); ok {
		off := mag[len(mag)-1]
		h.mags[cls] = mag[:len(mag)-1]
		h.cache.Hits++
		h.stats.Allocs++
		return off, true
	}
	// Depot miss: one back-end trip restocks the magazine. The batch
	// requests the class's reserved size so every refilled chunk
	// classifies back into this magazine.
	batch := alloc.HandleAllocBatch(h.back, h.a.geo.SizeOfLevel(level), h.a.refill)
	h.cache.Misses++
	if len(batch) == 0 {
		h.stats.AllocFails++
		return 0, false
	}
	off := batch[len(batch)-1]
	h.mags[cls] = append(h.mags[cls], batch[:len(batch)-1]...)
	d.noteRefill(len(batch))
	h.stats.Allocs++
	return off, true
}

// Free pushes the chunk into its class magazine. A full magazine is
// parked whole in the depot in O(1) or, at depot capacity, drained to the
// back-end as one batch.
func (h *Handle) Free(offset uint64) {
	h.checkDrain()
	size := h.a.ChunkSize(offset)
	cls := h.class(h.a.geo.LevelForSize(size))
	mag := h.mags[cls]
	if len(mag) >= h.a.magCap {
		if fresh, ok := h.a.depot.ExchangeEmpty(cls, mag); ok {
			if fresh == nil {
				fresh = make([]uint64, 0, h.a.magCap)
			}
			mag = fresh
		} else {
			alloc.HandleFreeBatch(h.back, mag)
			h.cache.Spills += uint64(len(mag))
			mag = mag[:0]
		}
	}
	h.mags[cls] = append(mag, offset)
	h.cache.Refills++
	h.stats.Frees++
}

// AllocBatch implements alloc.BatchHandle by forwarding the bulk request
// to the back-end handle in one crossing. Like the allocator-level
// convenience path, bulk transfers do not cache: magazines are the
// steady-state chunk-at-a-time optimization, while a batch caller (a
// deep ramp, a planter) wants the back-end's batched level scan — routing
// a 512-chunk fill through per-chunk magazine misses would turn one scan
// into 512.
func (h *Handle) AllocBatch(size uint64, n int) []uint64 {
	h.checkDrain()
	if n <= 0 {
		return nil
	}
	if size > h.a.geo.MaxSize {
		h.stats.AllocFails++
		return nil
	}
	out := alloc.HandleAllocBatch(h.back, size, n)
	h.stats.Allocs += uint64(len(out))
	if len(out) == 0 {
		h.stats.AllocFails++
	}
	return out
}

// FreeBatch implements alloc.BatchHandle (forwarded, see AllocBatch).
func (h *Handle) FreeBatch(offsets []uint64) {
	h.checkDrain()
	alloc.HandleFreeBatch(h.back, offsets)
	h.stats.Frees += uint64(len(offsets))
}

// Flush returns every cached chunk to the back-end, one batch per
// magazine.
func (h *Handle) Flush() {
	for cls, mag := range h.mags {
		if len(mag) == 0 {
			continue
		}
		alloc.HandleFreeBatch(h.back, mag)
		h.cache.Spills += uint64(len(mag))
		h.mags[cls] = mag[:0]
	}
}

// Cached returns the number of chunks currently held in magazines.
func (h *Handle) Cached() int {
	n := 0
	for _, mag := range h.mags {
		n += len(mag)
	}
	return n
}

// CacheStats returns the magazine counters.
func (h *Handle) CacheStats() CacheStats { return h.cache }

// Stats implements alloc.Handle.
func (h *Handle) Stats() *alloc.Stats { return &h.stats }

// Close implements alloc.HandleCloser: flush the magazines, fold the
// operation and cache counters into the allocator's retained totals,
// unregister, and close the wrapped back-end handle. The handle must not
// be used afterwards.
func (h *Handle) Close() {
	h.Flush()
	a := h.a
	if a.reg.Remove(h, func() { a.closedCache.add(h.cache) }) {
		alloc.CloseHandle(h.back)
	}
}
