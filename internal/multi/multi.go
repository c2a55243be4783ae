// Package multi composes several single-instance back-end allocators into
// one address space, the deployment mode the paper's related-work section
// describes for large NUMA machines: the Linux kernel keeps one buddy
// instance per NUMA node and routes requests by memory policy, falling
// back to other nodes when the preferred one cannot serve.
//
// The wrapper is deliberately orthogonal to the allocator variant: it
// takes any registered back-end (non-blocking or spin-locked), which is
// exactly the paper's point — multi-instance data separation and
// non-blocking single-instance management compose. It is a full citizen
// of the composable layer contract (alloc.ChunkSizer, alloc.Spanner,
// alloc.LayerStatser, alloc.Scrubber), so caching front-ends and the
// slab stack over it transparently, and its bound mapped region (mem) is
// what puts bytes behind the offsets.
//
// The instance set is no longer fixed at construction: the router keeps a
// copy-on-write slot table behind an atomic pointer, so an elastic
// capacity manager (internal/elastic) can add instances and retire them at
// runtime while handles keep operating lock-free. Slot k permanently owns
// the global offset window [k*Total, (k+1)*Total) — retiring an instance
// leaves a hole in the table rather than renumbering, so offsets of live
// chunks on the surviving instances stay stable, and a later grow reuses
// the hole before widening the table. Retirement is three-phase: a slot is
// first marked draining (allocations skip it; frees keep routing to it by
// offset), then waits until its live-chunk count reaches zero, and only
// then is unpublished from the table (see DESIGN.md, "The elastic instance
// lifecycle").
package multi

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/mem"
)

// Policy selects the preferred instance for a handle.
type Policy int

const (
	// RoundRobin assigns handles to instances in creation order, the
	// moral equivalent of spreading threads across NUMA nodes.
	RoundRobin Policy = iota
	// Fixed pins every handle to instance 0, reproducing the paper's
	// Figure 12 setup where the memory policy binds all threads to one
	// buddy instance ("instance 0") to measure same-instance contention.
	Fixed
)

// Slot lifecycle states.
const (
	// slotActive serves allocations and frees.
	slotActive uint32 = iota
	// slotDraining refuses new allocations but still receives frees for
	// chunks it delivered earlier; once its live count reaches zero it can
	// be unpublished.
	slotDraining
)

// State is the externally visible lifecycle state of an instance slot.
type State int

const (
	// Active slots serve allocations.
	Active State = iota
	// Draining slots only receive frees until their live count hits zero.
	Draining
	// Retired marks an unpublished hole in the table.
	Retired
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Draining:
		return "draining"
	default:
		return "retired"
	}
}

// slot is one instance position of the table. Slots are shared by every
// table version that contains them: the lifecycle state and the live
// counters live in the slot, not the table, so flipping a slot to
// draining needs no table copy and is visible to handles still operating
// through an older table snapshot.
type slot struct {
	// id is unique across the router's lifetime; handles use it to detect
	// that a hole was refilled by a different instance and their cached
	// sub-handle is stale.
	id    uint64
	a     alloc.Allocator
	sizer alloc.ChunkSizer
	state atomic.Uint32
	// full is the advisory failure hint: bit L set means an allocation at
	// level L failed on this slot and no free has reached it since, so
	// allocations at L try the other slots first (see DESIGN.md, "The
	// failure hint"). It only orders the walk; every leaf call still goes
	// through the cell and state checks of tryAllocOn.
	full atomic.Uint64
	// The slot's live count — chunks delivered and not yet freed, and
	// their reserved bytes — is kept only when the router's live tracking
	// is enabled (elastic deployments); the fixed-set fast path pays
	// nothing. It is split into one single-writer cell per handle that
	// touched the slot plus base, the folded cells of closed handles; the
	// count is their sum (liveSum). cellMu guards cells, base and
	// baseBytes, never a cell's contents.
	cellMu          sync.Mutex
	cells           []*liveCell
	base, baseBytes int64
}

// liveCell is one handle's share of a slot's live count. Only the owning
// handle writes it, with a Load+Store instead of an atomic add, and no
// other handle writes its cache line, so the line never bounces between
// workers; readers sum the cells under the slot's cellMu. A cell goes negative when its handle frees chunks another
// handle allocated — only the sum is meaningful.
type liveCell struct {
	n, bytes atomic.Int64
	_        [48]byte // pad to one 64-byte cache line
}

// add moves a single-writer counter by d.
func add(v *atomic.Int64, d int64) { v.Store(v.Load() + d) }

// markFull sets the failure-hint bit of a level whose allocation the leaf
// refused. A CAS loop rather than atomic Or: go1.24.0 miscompiles the
// Or/And intrinsics (DESIGN.md, "Memory ordering of sub-word CAS").
func (s *slot) markFull(bit uint64) {
	for {
		old := s.full.Load()
		if old&bit == bit || s.full.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// clearFull drops every failure hint once capacity may have come back: a
// free of any order can coalesce into a block of a larger one. It costs a
// load, and a store only when a hint is set.
func (s *slot) clearFull() {
	if s.full.Load() != 0 {
		s.full.Store(0)
	}
}

// newCell registers a fresh cell on the slot.
func (s *slot) newCell() *liveCell {
	c := new(liveCell)
	s.cellMu.Lock()
	s.cells = append(s.cells, c)
	s.cellMu.Unlock()
	return c
}

// fold moves a closing handle's cell into the slot's base and
// unregisters it, in one step under cellMu, so no sum sees it twice or
// not at all.
func (s *slot) fold(c *liveCell) {
	s.cellMu.Lock()
	defer s.cellMu.Unlock()
	s.base += c.n.Load()
	s.baseBytes += c.bytes.Load()
	for i, x := range s.cells {
		if x == c {
			last := len(s.cells) - 1
			s.cells[i], s.cells[last] = s.cells[last], nil
			s.cells = s.cells[:last]
			return
		}
	}
}

// liveSum totals the slot's live count and bytes, reading each cell once.
// The sum is never below the true count at its last read (see TryRetire),
// so zero proves a draining slot empty.
func (s *slot) liveSum() (n, bytes int64) {
	s.cellMu.Lock()
	defer s.cellMu.Unlock()
	n, bytes = s.base, s.baseBytes
	for _, c := range s.cells {
		n += c.n.Load()
		bytes += c.bytes.Load()
	}
	return n, bytes
}

// table is one immutable version of the instance set. Positions are
// stable: slots[k] serves global offsets [k*span, (k+1)*span); nil marks
// a retired hole.
type table struct {
	slots []*slot
}

// Multi is a set of same-geometry back-end instances behind one offset
// space: instance k serves global offsets [k*Total, (k+1)*Total).
type Multi struct {
	variant   string
	cfg       alloc.Config
	policy    Policy
	span      uint64 // per-instance managed bytes, a power of two
	spanShift uint   // log2(span): offset>>spanShift is the offset's slot
	geo       geometry.Geometry
	leafName  string
	// trackLive enables the per-slot live accounting the elastic lifecycle
	// needs. It must be set (EnableLiveTracking) before the router serves
	// any traffic and never changes afterwards.
	trackLive bool
	// region, when bound (BindMemory, before traffic), backs each slot's
	// offset window with platform mapped memory that follows the slot
	// lifecycle: committed while the slot is published, decommitted when it
	// retires — the point where an elastic shrink actually returns RSS to
	// the OS.
	region *mem.Region

	tab  atomic.Pointer[table]
	next atomic.Uint64

	mu     sync.Mutex
	nextID uint64
	// reg holds the live handles (the routing counters of closed ones
	// retained); closedFallbacks and closedHintSkips, guarded by the
	// registry lock, retain the closed handles' fallback and hint-skip
	// counts. conv holds the idle convenience handles behind
	// Multi.Alloc/Free.
	reg             alloc.Registry[*Handle]
	closedFallbacks uint64
	closedHintSkips uint64
	conv            alloc.ConvPool[*Handle]
}

// New builds count instances of the named back-end variant.
func New(variant string, count int, cfg alloc.Config, policy Policy) (*Multi, error) {
	if count <= 0 {
		return nil, fmt.Errorf("multi: instance count %d must be positive", count)
	}
	if cfg.Total == 0 || cfg.Total&(cfg.Total-1) != 0 {
		return nil, fmt.Errorf("multi: instance span %d is not a power of two", cfg.Total)
	}
	m := &Multi{variant: variant, cfg: cfg, policy: policy, span: cfg.Total,
		spanShift: uint(bits.TrailingZeros64(cfg.Total))}
	m.conv.New = func() *Handle { return m.newHandle(m.prefer()) }
	slots := make([]*slot, count)
	for i := 0; i < count; i++ {
		s, err := m.buildSlot()
		if err != nil {
			return nil, fmt.Errorf("multi: instance %d: %w", i, err)
		}
		slots[i] = s
	}
	m.geo = slots[0].a.Geometry()
	m.leafName = slots[0].a.Name()
	m.tab.Store(&table{slots: slots})
	return m, nil
}

// buildSlot constructs one leaf instance and wraps it in a fresh slot.
// Callers must hold m.mu except during New.
func (m *Multi) buildSlot() (*slot, error) {
	a, err := alloc.Build(m.variant, m.cfg)
	if err != nil {
		return nil, err
	}
	sizer, ok := a.(alloc.ChunkSizer)
	if !ok {
		return nil, fmt.Errorf("multi: back-end %s cannot report chunk sizes", a.Name())
	}
	m.nextID++
	return &slot{id: m.nextID, a: a, sizer: sizer}, nil
}

// EnableLiveTracking turns on the per-slot live accounting that the
// draining→zero-live→unpublish retirement sequence depends on: every
// handle then keeps one live cell per slot it touches. It must be called
// before the router serves any traffic (the elastic manager calls it at
// construction); chunks delivered before tracking was enabled would be
// invisible to the cells and break the retirement argument.
func (m *Multi) EnableLiveTracking() { m.trackLive = true }

// BindMemory attaches a mapped region as the router's memory backing:
// slot k's offset window [k*Total, (k+1)*Total) is backed by region
// window k. Every currently published slot's window is committed here;
// afterwards the lifecycle keeps them in step — AddInstance commits
// (recommits, when refilling a retired hole) before publishing,
// Reactivate re-asserts the commit, and TryRetire decommits after
// unpublishing, which is what finally returns a retired instance's RSS
// to the OS. Like EnableLiveTracking it must be called before the router
// serves any traffic.
func (m *Multi) BindMemory(r *mem.Region) error {
	if r.WindowSize() != m.span {
		return fmt.Errorf("multi: region window %d bytes does not match the %d-byte instance span",
			r.WindowSize(), m.span)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	if err := r.Ensure(len(t.slots)); err != nil {
		return err
	}
	for k, s := range t.slots {
		if s == nil {
			continue
		}
		if err := r.Commit(k); err != nil {
			return err
		}
	}
	m.region = r
	return nil
}

// Memory exposes the bound mapped region (nil for unmapped routers).
func (m *Multi) Memory() *mem.Region { return m.region }

// Name implements alloc.Allocator.
func (m *Multi) Name() string {
	if m.region != nil {
		return fmt.Sprintf("mapped+multi[%dx %s]", m.Instances(), m.leafName)
	}
	return fmt.Sprintf("multi[%dx %s]", m.Instances(), m.leafName)
}

// Geometry implements alloc.Allocator; it reports the per-instance
// geometry (instances are identical). The global offset space is wider:
// see OffsetSpan.
func (m *Multi) Geometry() geometry.Geometry { return m.geo }

// OffsetSpan implements alloc.Spanner: the router serves global offsets
// [0, Slots*Total). Retired holes keep their window reserved (offsets on
// surviving instances never move), so the span only ever grows.
func (m *Multi) OffsetSpan() uint64 { return m.span * uint64(len(m.tab.Load().slots)) }

// InstanceSpan returns the per-instance managed bytes (the width of one
// slot's offset window).
func (m *Multi) InstanceSpan() uint64 { return m.span }

// Instances returns the number of published back-end instances (active or
// draining; retired holes excluded).
func (m *Multi) Instances() int {
	n := 0
	for _, s := range m.tab.Load().slots {
		if s != nil {
			n++
		}
	}
	return n
}

// ActiveInstances returns the number of slots currently accepting
// allocations.
func (m *Multi) ActiveInstances() int {
	n := 0
	for _, s := range m.tab.Load().slots {
		if s != nil && s.state.Load() == slotActive {
			n++
		}
	}
	return n
}

// Slots returns the table length, retired holes included — the divisor of
// the global offset space.
func (m *Multi) Slots() int { return len(m.tab.Load().slots) }

// Instance returns the k-th published back-end (for per-instance stats).
// With an elastic lifecycle the slot may be a retired hole; Instance then
// returns the first published instance so leaf-probing stack walkers keep
// working, and panics only when nothing is published (impossible: the
// router never retires its last instance).
func (m *Multi) Instance(k int) alloc.Allocator {
	t := m.tab.Load()
	if k < len(t.slots) && t.slots[k] != nil {
		return t.slots[k].a
	}
	for _, s := range t.slots {
		if s != nil {
			return s.a
		}
	}
	panic("multi: no published instances")
}

// InstanceOf returns which instance slot serves a global offset.
func (m *Multi) InstanceOf(offset uint64) int { return int(offset >> m.spanShift) }

// route validates a global offset and splits it into (slot, local).
func (m *Multi) route(t *table, offset uint64) (int, uint64, *slot) {
	k := m.InstanceOf(offset)
	if k >= len(t.slots) {
		panic(fmt.Sprintf("multi: offset %#x outside the %d-slot offset space", offset, len(t.slots)))
	}
	s := t.slots[k]
	if s == nil {
		panic(fmt.Sprintf("multi: offset %#x routes to retired slot %d", offset, k))
	}
	return k, offset - uint64(k)*m.span, s
}

// hintBit returns the failure-hint bit of the level a request targets, or
// 0 for a request above MaxSize, which every leaf refuses without a scan:
// such a refusal says nothing about the slot's free space.
func (m *Multi) hintBit(size uint64) uint64 {
	if size > m.geo.MaxSize {
		return 0
	}
	return 1 << m.geo.LevelForSize(size)
}

// reservedFor returns the reserved (power-of-two) size class a request
// rounds to — the delta the live-byte accounting applies per allocation.
func (m *Multi) reservedFor(size uint64) uint64 {
	return m.geo.SizeOfLevel(m.geo.LevelForSize(size))
}

// Alloc implements alloc.Allocator through a recycled convenience
// handle. Earlier revisions built a fresh handle per call; every handle
// permanently registers sub-handles on every instance, so the
// convenience path leaked without bound. The pool's free lists keep the
// registration count at the peak concurrency of the convenience path
// instead.
func (m *Multi) Alloc(size uint64) (uint64, bool) {
	h := m.conv.Borrow()
	off, ok := h.Alloc(size)
	m.conv.Return(h)
	return off, ok
}

// Free implements alloc.Allocator (through a recycled handle, so the
// routing layer's Frees counter stays in balance with Allocs).
func (m *Multi) Free(offset uint64) {
	h := m.conv.Borrow()
	h.Free(offset)
	m.conv.Return(h)
}

// ChunkSize implements alloc.ChunkSizer by routing the global offset to
// the owning instance's metadata.
func (m *Multi) ChunkSize(offset uint64) uint64 {
	_, local, s := m.route(m.tab.Load(), offset)
	return s.sizer.ChunkSize(local)
}

// Scrub implements alloc.Scrubber: it forwards to every published
// instance that supports scrubbing and clears the failure hints, since a
// scrub can free capacity without a routed free. Like any Scrub,
// quiescent points only.
func (m *Multi) Scrub() {
	for _, s := range m.tab.Load().slots {
		if s == nil {
			continue
		}
		if sc, ok := s.a.(alloc.Scrubber); ok {
			sc.Scrub()
		}
		s.clearFull()
	}
}

// prefer picks the preferred slot for the next handle by policy, skipping
// holes and draining slots when possible.
func (m *Multi) prefer() int {
	t := m.tab.Load()
	n := len(t.slots)
	if m.policy == RoundRobin {
		start := int(m.next.Add(1)-1) % n
		for d := 0; d < n; d++ {
			k := (start + d) % n
			if s := t.slots[k]; s != nil && s.state.Load() == slotActive {
				return k
			}
		}
		return start
	}
	return 0
}

// NewHandle implements alloc.Allocator: the handle carries the preferred
// instance chosen by the policy; per-instance sub-handles are created
// lazily as the handle's operations touch slots, so handles follow the
// table as it grows.
func (m *Multi) NewHandle() alloc.Handle { return m.newHandle(m.prefer()) }

// NewHandleOn returns a handle pinned to the given preferred slot —
// the explicit memory-policy binding (a thread bound to a NUMA node)
// that the Fixed policy hard-wires to instance 0.
func (m *Multi) NewHandleOn(instance int) alloc.Handle {
	t := m.tab.Load()
	if instance < 0 || instance >= len(t.slots) || t.slots[instance] == nil {
		panic(fmt.Sprintf("multi: NewHandleOn(%d) with %d slots", instance, len(t.slots)))
	}
	return m.newHandle(instance)
}

func (m *Multi) newHandle(pref int) *Handle {
	h := &Handle{m: m, pref: pref}
	m.reg.Add(h)
	return h
}

// Stats aggregates all published instances (the back-end view of the
// traffic; the routing layer's own counters are in LayerStats). Instances
// retire only when fully drained — their allocs and frees are balanced —
// so dropping them keeps the aggregate balanced.
func (m *Multi) Stats() alloc.Stats {
	var total alloc.Stats
	for _, s := range m.tab.Load().slots {
		if s != nil {
			total.Add(s.a.Stats())
		}
	}
	return total
}

// RouteStats are the routing-layer counters aggregated across handles.
type RouteStats struct {
	// Routed counts allocations served by the handle's preferred instance.
	Routed uint64
	// Fallbacks counts allocations the preferred instance could not serve
	// that another instance absorbed (the kernel's zone-fallback path);
	// allocations that skipped a hinted preferred instance count here too.
	Fallbacks uint64
}

// Handles returns the number of handles registered so far (pooled
// convenience handles included) — a diagnostic for the handle-leak
// regression test and capacity monitoring.
func (m *Multi) Handles() int { return m.reg.Len() }

// routing totals the handle-level routing counters, fallbacks and hint
// skips, closed handles included; quiescent points only.
func (m *Multi) routing() (stats alloc.Stats, fallbacks, hintSkips uint64) {
	m.reg.Walk(func(live []*Handle) {
		fallbacks, hintSkips = m.closedFallbacks, m.closedHintSkips
		for _, h := range live {
			fallbacks += h.fallbacks
			hintSkips += h.hintSkips
		}
	})
	return m.reg.Stats(), fallbacks, hintSkips
}

// RouteStats aggregates the routing counters of all handles; quiescent
// points only.
func (m *Multi) RouteStats() RouteStats {
	routing, fallbacks, _ := m.routing()
	return RouteStats{Routed: routing.Allocs - fallbacks, Fallbacks: fallbacks}
}

// LayerStats implements alloc.LayerStatser: the routing layer's entry
// (handle-level ops plus fallback counters) followed by one aggregated
// entry for the instance fleet.
func (m *Multi) LayerStats() []alloc.LayerStats {
	routing, fallbacks, hintSkips := m.routing()
	entry := alloc.LayerStats{
		Layer: m.Name(),
		Stats: routing,
		Extra: map[string]uint64{
			"instances":  uint64(m.Instances()),
			"active":     uint64(m.ActiveInstances()),
			"slots":      uint64(m.Slots()),
			"fallbacks":  fallbacks,
			"hint_skips": hintSkips,
		},
	}
	if m.region != nil {
		ms := m.region.Stats()
		entry.Extra["mem_reserved"] = ms.ReservedBytes
		entry.Extra["mem_committed"] = ms.CommittedBytes
		entry.Extra["mem_decommits"] = ms.Decommits
		entry.Extra["mem_recommits"] = ms.Recommits
		if n := ms.ReserveFails + ms.CommitFails + ms.DecommitFails; n > 0 {
			entry.Extra["mem_lifecycle_failures"] = n
		}
		for site, n := range m.region.Injector().Injected() {
			entry.Extra["fault_"+string(site)] = n
		}
	}
	backend := alloc.LayerStats{
		Layer: fmt.Sprintf("%s x%d", m.leafName, m.Instances()),
		Stats: m.Stats(),
	}
	return []alloc.LayerStats{entry, backend}
}

// AddInstance builds a fresh instance of the router's variant and
// publishes it: into the first retired hole when one exists (keeping the
// offset span stable), otherwise appended to the table (widening the
// global offset space by one instance span). It returns the slot index.
// Table mutations are serialized by the router's mutex; readers stay
// lock-free on the atomic table pointer. Publication order: the instance
// is fully constructed before the table carrying it is stored, so any
// handle that can see the slot sees a complete instance.
func (m *Multi) AddInstance() (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.tab.Load()
	slots := append([]*slot(nil), old.slots...)
	k := -1
	for i, existing := range slots {
		if existing == nil {
			k = i
			break
		}
	}
	if k < 0 {
		slots = append(slots, nil)
		k = len(slots) - 1
	}
	// Publication order, extended to memory: the slot's window is
	// committed (a recommit when k is a refilled hole) before the table
	// carrying the slot is stored, so any handle that can route to the
	// instance finds its memory resident. Memory goes FIRST so the common
	// environmental failure (reserve/commit ENOMEM) aborts before any
	// instance exists — nothing to unwind, the table is untouched and the
	// widened slots copy is simply dropped.
	if m.region != nil {
		if err := m.region.Ensure(k + 1); err != nil {
			return 0, fmt.Errorf("multi: reserving window %d: %w", k, err)
		}
		if err := m.region.Commit(k); err != nil {
			return 0, fmt.Errorf("multi: committing window %d: %w", k, err)
		}
	}
	s, err := m.buildSlot()
	if err != nil {
		// Roll the commit back so no half-committed window leaks behind
		// the unpublished slot. Best-effort: if the decommit also fails
		// the window merely stays resident and a later grow into this
		// hole recommits it idempotently.
		if m.region != nil {
			_ = m.region.Decommit(k)
		}
		return 0, fmt.Errorf("multi: adding instance: %w", err)
	}
	slots[k] = s
	m.tab.Store(&table{slots: slots})
	return k, nil
}

// StartDrain flips slot k from active to draining: handles stop
// allocating from it (the state check on the allocation path) while frees
// keep routing to it by offset. Draining the last active slot is refused —
// the router never goes allocation-dead. Requires live tracking.
func (m *Multi) StartDrain(k int) error {
	if !m.trackLive {
		return fmt.Errorf("multi: StartDrain without live tracking")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	if k < 0 || k >= len(t.slots) || t.slots[k] == nil {
		return fmt.Errorf("multi: StartDrain(%d): no such instance", k)
	}
	s := t.slots[k]
	if s.state.Load() != slotActive {
		return fmt.Errorf("multi: StartDrain(%d): already draining", k)
	}
	active := 0
	for _, other := range t.slots {
		if other != nil && other.state.Load() == slotActive {
			active++
		}
	}
	if active <= 1 {
		return fmt.Errorf("multi: StartDrain(%d) would leave no active instance", k)
	}
	s.state.Store(slotDraining)
	return nil
}

// Reactivate flips a draining slot back to active — the cheap grow path
// when capacity pressure returns before the drain completed. It clears the
// slot's failure hints: frees that landed while it drained may have made
// room for sizes that failed before.
func (m *Multi) Reactivate(k int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	if k < 0 || k >= len(t.slots) || t.slots[k] == nil {
		return fmt.Errorf("multi: Reactivate(%d): no such instance", k)
	}
	s := t.slots[k]
	if s.state.Load() != slotDraining {
		return fmt.Errorf("multi: Reactivate(%d): not draining", k)
	}
	// A draining slot's window is still committed (its live chunks are
	// still backed); re-asserting the commit is an idempotent no-op that
	// keeps the invariant "published slot => committed window" local.
	if m.region != nil {
		if err := m.region.Commit(k); err != nil {
			return fmt.Errorf("multi: recommitting window %d: %w", k, err)
		}
	}
	s.clearFull()
	s.state.Store(slotActive)
	return nil
}

// TryRetire unpublishes a fully drained slot: it succeeds only when the
// slot is draining and its live count sums to zero, replacing the table
// with a copy holding a hole at k. Why this is safe under concurrent
// allocation: the allocation path raises the handle's cell BEFORE loading
// the state, and TryRetire reads the cells AFTER the draining state was
// stored. Under Go's sequentially consistent atomics, a cell read that
// misses a raise therefore proves that the allocation loads the state
// after the draining store — and backs off. So once the slot drains, no
// cell rises except for a refused attempt's transient +n/-n, and a sum
// read cell by cell is at least the true live count at its last read:
// zero means no chunk of this slot is outstanding. Frees need no further
// argument: they decrement only after the leaf free returned, and with
// nothing outstanding no legal free can route here again.
func (m *Multi) TryRetire(k int) (bool, error) {
	if !m.trackLive {
		return false, fmt.Errorf("multi: TryRetire without live tracking")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.tab.Load()
	if k < 0 || k >= len(t.slots) || t.slots[k] == nil {
		return false, fmt.Errorf("multi: TryRetire(%d): no such instance", k)
	}
	s := t.slots[k]
	if s.state.Load() != slotDraining {
		return false, fmt.Errorf("multi: TryRetire(%d): not draining", k)
	}
	if n, _ := s.liveSum(); n != 0 {
		return false, nil
	}
	// Decommit BEFORE unpublishing. It is safe this early: the draining
	// state already blocks new allocations and a zero sum proved no chunk
	// references the window (the draining→zero-live fence above), so
	// nothing can touch the pages between here and the table store. And
	// it makes decommit failure recoverable: the slot stays published and
	// draining, the window stays committed, and the next retirement pass
	// simply retries — instead of the old unpublished-but-still-resident
	// half state that nothing would ever revisit.
	if m.region != nil {
		if err := m.region.Decommit(k); err != nil {
			return false, fmt.Errorf("multi: retiring slot %d: %w", k, err)
		}
	}
	slots := append([]*slot(nil), t.slots...)
	slots[k] = nil
	m.tab.Store(&table{slots: slots})
	return true, nil
}

// InstanceInfo is one slot's lifecycle snapshot.
type InstanceInfo struct {
	// Slot is the table position (== offset window index).
	Slot int
	// State is the lifecycle state; Retired slots carry no other data.
	State State
	// Live is the number of delivered, not-yet-freed chunks (live
	// tracking only; 0 otherwise).
	Live int64
	// LiveBytes is the reserved bytes of those chunks.
	LiveBytes int64
	// Name labels the instance's leaf allocator.
	Name string
}

// InstanceInfos returns a lifecycle snapshot of every table slot,
// retired holes included.
func (m *Multi) InstanceInfos() []InstanceInfo {
	t := m.tab.Load()
	out := make([]InstanceInfo, len(t.slots))
	for k, s := range t.slots {
		if s == nil {
			out[k] = InstanceInfo{Slot: k, State: Retired}
			continue
		}
		st := Active
		if s.state.Load() == slotDraining {
			st = Draining
		}
		live, liveBytes := s.liveSum()
		out[k] = InstanceInfo{
			Slot:      k,
			State:     st,
			Live:      live,
			LiveBytes: liveBytes,
			Name:      s.a.Name(),
		}
	}
	return out
}

// Handle is the per-worker face of the composed allocator. Sub-handles
// are created lazily per slot, re-created when a hole is refilled by a
// new instance (detected by slot id), and dropped when the handle
// observes a table in which their slot retired — otherwise every handle
// that ever touched an instance would pin its metadata after the elastic
// manager unpublished it, defeating the point of the shrink.
type Handle struct {
	m       *Multi
	pref    int
	tabSeen *table
	subs    []subRef
	// scratch holds the run of local offsets FreeBatch hands a leaf; the
	// leaves' FreeBatch does not retain its argument, so it is reused
	// call after call.
	scratch   []uint64
	stats     alloc.Stats
	fallbacks uint64
	// hintSkips counts hinted slots this handle's allocations skipped and
	// never asked: the leaf calls the failure hint saved.
	hintSkips uint64
	// Workers' handles are allocated back to back and every operation
	// writes the counters, so the pad rounds the handle up to three whole
	// cache lines: at 136 bytes one worker's counters shared a line with
	// the next handle's table snapshot and sub-handle slice, which cost
	// burst-elastic 12 % of its free p50 on a 2-vCPU host.
	_ [48]byte
}

// subRef is a handle's cached view of one slot: the leaf sub-handle, the
// id of the slot it belongs to, and, with live tracking, the handle's
// live cell on that slot.
type subRef struct {
	h    alloc.Handle
	id   uint64
	cell *liveCell
}

// syncTable drops cached sub-handles whose slot the given table no longer
// backs with the same instance, so a retired instance becomes collectable
// as soon as the owner goroutine observes the change. It runs once per
// published table version (a pointer compare on the fast path). Handles
// that stop operating keep their last snapshot pinned — the same
// monotonic-registry caveat DESIGN.md documents for handles themselves.
// A dropped cell needs no fold: its slot is gone from the table.
func (h *Handle) syncTable(t *table) {
	if h.tabSeen == t {
		return
	}
	h.tabSeen = t
	for k := range h.subs {
		if h.subs[k].h == nil {
			continue
		}
		if k >= len(t.slots) || t.slots[k] == nil || t.slots[k].id != h.subs[k].id {
			h.subs[k] = subRef{}
		}
	}
}

// sub returns the handle's cached view of slot k, creating or refreshing
// it when the slot changed identity since the last visit. With live
// tracking the fresh view carries a new live cell registered on s.
func (h *Handle) sub(s *slot, k int) *subRef {
	for k >= len(h.subs) {
		h.subs = append(h.subs, subRef{})
	}
	r := &h.subs[k]
	if r.id != s.id {
		*r = subRef{h: s.a.NewHandle(), id: s.id}
		if h.m.trackLive {
			r.cell = s.newCell()
		}
	}
	return r
}

// tryAllocOn attempts one allocation on slot k. With live tracking the
// handle's cell is raised BEFORE the state check: either TryRetire reads
// the raise (a non-zero sum, retirement refused), or this load observes
// the draining state and backs off — there is no interleaving in which a
// chunk is delivered from a slot that was already judged empty. A leaf
// refusal sets the slot's failure-hint bit; a draining refusal does not,
// since it says nothing about the slot's free space.
func (h *Handle) tryAllocOn(s *slot, k int, size, bit uint64) (uint64, bool) {
	m := h.m
	r := h.sub(s, k)
	c := r.cell
	if c != nil {
		add(&c.n, 1)
		if s.state.Load() != slotActive {
			add(&c.n, -1)
			return 0, false
		}
	}
	off, ok := r.h.Alloc(size)
	if !ok {
		if c != nil {
			add(&c.n, -1)
		}
		s.markFull(bit)
		return 0, false
	}
	if c != nil {
		add(&c.bytes, int64(m.reservedFor(size)))
	}
	return uint64(k)*m.span + off, true
}

// Alloc tries the preferred instance first and falls back to the others in
// order, the kernel's zone-fallback discipline. Holes and draining slots
// are skipped. A round-robin handle that fell back moves its preference
// to the instance that served (the kernel's cached zone-iterator
// position): without that, every allocation against a saturated
// preferred instance re-walks its full level scan before falling back —
// quadratic exactly when a fleet runs near capacity, the regime the
// elastic manager operates in. Fixed-policy handles never move (the
// pinning is the experiment); for them the slots' failure hints do the
// same job: a slot hinted full at the request's level is skipped on the
// first pass and asked on a second pass only if no other slot served, so
// a stale hint moves a placement but never fails an allocation, and no
// leaf is asked twice.
func (h *Handle) Alloc(size uint64) (uint64, bool) {
	t := h.m.tab.Load()
	h.syncTable(t)
	n := len(t.slots)
	bit := h.m.hintBit(size)
	var skipped uint64 // bit d: the slot at distance d was hinted full
	for d := 0; d < n; d++ {
		k := (h.pref + d) % n
		s := t.slots[k]
		if s == nil {
			continue
		}
		if d < 64 && s.full.Load()&bit != 0 {
			skipped |= 1 << d
			h.hintSkips++
			continue
		}
		if off, ok := h.tryAllocOn(s, k, size, bit); ok {
			return h.served(off, k, d), true
		}
	}
	for ; skipped != 0; skipped &= skipped - 1 {
		d := bits.TrailingZeros64(skipped)
		k := (h.pref + d) % n
		h.hintSkips--
		if off, ok := h.tryAllocOn(t.slots[k], k, size, bit); ok {
			return h.served(off, k, d), true
		}
	}
	h.stats.AllocFails++
	return 0, false
}

// served books one allocation that slot k, at distance d from the
// preference, delivered.
func (h *Handle) served(off uint64, k, d int) uint64 {
	h.stats.Allocs++
	if d != 0 {
		h.fallbacks++
		if h.m.policy == RoundRobin {
			h.pref = k
		}
	}
	return off
}

// Free routes the offset back to its owning instance. With live tracking
// the handle's cell on the owning slot is decremented only after the
// instance-level free completed, so a slot whose cells sum to zero has
// fully quiesced. The cell may go negative when the chunk was allocated
// through another handle.
func (h *Handle) Free(offset uint64) {
	m := h.m
	t := m.tab.Load()
	h.syncTable(t)
	k, local, s := m.route(t, offset)
	r := h.sub(s, k)
	if c := r.cell; c != nil {
		// Read the reserved size before the free clears the metadata.
		reserved := s.sizer.ChunkSize(local)
		r.h.Free(local)
		add(&c.bytes, -int64(reserved))
		add(&c.n, -1)
	} else {
		r.h.Free(local)
	}
	s.clearFull()
	h.stats.Frees++
}

// Stats returns this handle's routing counters (per-instance work is
// accounted in the sub-handles and aggregated by Multi.Stats).
func (h *Handle) Stats() *alloc.Stats { return &h.stats }

// Close implements alloc.HandleCloser: close every cached per-instance
// sub-handle, fold its live cell into the slot's base (a slot retired
// meanwhile needs none), fold the routing counters into the router's
// retained totals, and unregister. The handle must not be used
// afterwards.
func (h *Handle) Close() {
	m := h.m
	t := m.tab.Load()
	for k, r := range h.subs {
		if r.h == nil {
			continue
		}
		alloc.CloseHandle(r.h)
		if r.cell != nil && k < len(t.slots) && t.slots[k] != nil && t.slots[k].id == r.id {
			t.slots[k].fold(r.cell)
		}
		h.subs[k] = subRef{}
	}
	m.reg.Remove(h, func() {
		m.closedFallbacks += h.fallbacks
		m.closedHintSkips += h.hintSkips
	})
}
