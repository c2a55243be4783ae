// Package slbuddy implements the paper's own-data-structure blocking
// baselines "1lvl-sl" and "4lvl-sl": the tree layouts of the non-blocking
// buddy system, but with every operation executed as a critical section
// under one global spin-lock instead of via RMW instructions (paper §IV).
// Inside the lock the updates are plain stores, and no coalescing bits are
// needed — the transient states they flag cannot be observed by other
// threads.
//
// These baselines isolate the cost of the synchronization discipline: the
// status algebra, the climbs and the subtree-skipping level scan are held
// constant with internal/bunch's "1lvl-nb" (bunch height 1) and "4lvl-nb"
// (bunch height 4), so any performance gap is attributable to spin-lock
// serialization versus non-blocking conflict detection. The 1-level
// layout here keeps one uint32 per node and probes node by node; only
// "4lvl-sl" shares the non-blocking leaf's packed words.
package slbuddy

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/spinlock"
	"repro/internal/status"
)

func init() {
	alloc.Register("1lvl-sl", func(cfg alloc.Config) (alloc.Allocator, error) {
		return New1Lvl(cfg)
	})
	alloc.Register("4lvl-sl", func(cfg alloc.Config) (alloc.Allocator, error) {
		return New4Lvl(cfg)
	})
}

// layout is the storage scheme the locked algorithms run over. All methods
// are called with the instance lock held; none of them synchronize.
type layout interface {
	// free reports whether node n has no busy bits.
	free(n uint64) bool
	// occAncestor returns the first fully-occupied ancestor on n's climb
	// path (which makes n unallocatable), or 0 when the path is clear.
	occAncestor(n uint64) uint64
	// occupy reserves node n and marks partial occupancy up to MaxLevel.
	// The path must have been validated with occAncestor first.
	occupy(n uint64)
	// release clears node n and unmarks the climb path, stopping where the
	// buddy subtree is still occupied.
	release(n uint64)
}

// Allocator is a spin-lock protected buddy instance over either layout.
type Allocator struct {
	name  string
	geo   geometry.Geometry
	lock  spinlock.Locker
	lay   layout
	index []uint32 // unit slot -> serving node, 0 = not delivered
	next  uint64   // rotating scan start, advanced per allocation
	reg   alloc.Registry[*Handle]
}

// New1Lvl builds the "1lvl-sl" baseline.
func New1Lvl(cfg alloc.Config) (*Allocator, error) {
	return build("1lvl-sl", cfg, func(geo geometry.Geometry) layout { return newFlatLayout(geo) })
}

// New4Lvl builds the "4lvl-sl" baseline.
func New4Lvl(cfg alloc.Config) (*Allocator, error) {
	return build("4lvl-sl", cfg, func(geo geometry.Geometry) layout { return newBunchLayout(geo) })
}

func build(name string, cfg alloc.Config, mk func(geometry.Geometry) layout) (*Allocator, error) {
	geo, err := geometry.New(cfg.Total, cfg.MinSize, cfg.MaxSize)
	if err != nil {
		return nil, err
	}
	if geo.Depth > 31 {
		return nil, fmt.Errorf("slbuddy: depth %d exceeds the uint32 node-index range", geo.Depth)
	}
	return &Allocator{
		name:  name,
		geo:   geo,
		lock:  spinlock.New(spinlock.Kind(cfg.LockKind)),
		lay:   mk(geo),
		index: make([]uint32, geo.Leaves()),
	}, nil
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.name }

// Geometry implements alloc.Allocator.
func (a *Allocator) Geometry() geometry.Geometry { return a.geo }

// Alloc implements alloc.Allocator.
func (a *Allocator) Alloc(size uint64) (uint64, bool) {
	var s alloc.Stats
	return a.alloc(size, &s)
}

// Free implements alloc.Allocator.
func (a *Allocator) Free(offset uint64) {
	var s alloc.Stats
	a.release(offset, &s)
}

// NewHandle implements alloc.Allocator.
func (a *Allocator) NewHandle() alloc.Handle {
	h := &Handle{a: a}
	a.reg.Add(h)
	return h
}

// Stats implements alloc.Allocator; call it only at quiescent points.
func (a *Allocator) Stats() alloc.Stats { return a.reg.Stats() }

// Handle is the per-worker face of the allocator.
type Handle struct {
	a     *Allocator
	stats alloc.Stats
}

// Stats implements alloc.Handle.
func (h *Handle) Stats() *alloc.Stats { return &h.stats }

// Close implements alloc.HandleCloser: fold this handle's counters into
// the allocator's retained totals and unregister it, so handle-churning
// callers do not grow the registry without bound. The handle must not be
// used afterwards.
func (h *Handle) Close() { h.a.reg.Remove(h, nil) }

// Handles returns the number of registered (not yet closed) handles — a
// diagnostic for the handle-leak regression tests.
func (a *Allocator) Handles() int { return a.reg.Len() }

// Alloc implements alloc.Handle.
func (h *Handle) Alloc(size uint64) (uint64, bool) { return h.a.alloc(size, &h.stats) }

// Free implements alloc.Handle.
func (h *Handle) Free(offset uint64) { h.a.release(offset, &h.stats) }

// alloc performs the whole allocation as one critical section: scan the
// target level for a free node whose climb path is clear, occupy it, and
// record the serving node. A free node under a fully-occupied ancestor
// makes the scan skip the ancestor's entire subtree, exactly like the
// non-blocking NBALLOC.
func (a *Allocator) alloc(size uint64, s *alloc.Stats) (uint64, bool) {
	geo := a.geo
	if size > geo.MaxSize {
		s.AllocFails++
		return 0, false
	}
	level := geo.LevelForSize(size)
	base := geometry.FirstOfLevel(level)
	end := base << 1

	a.lock.Lock()
	s.LockAcq++
	// Rotate the scan start across allocations so the locked variants do
	// not re-walk fragmented prefixes either.
	start := base + a.next%(end-base)
	a.next++
	for pass := 0; pass < 2; pass++ {
		lo, hi := start, end
		if pass == 1 {
			lo, hi = base, start
		}
		for i := lo; i < hi; {
			if !a.lay.free(i) {
				i++
				continue
			}
			if conflict := a.lay.occAncestor(i); conflict != 0 {
				s.Retries++
				d := uint64(1) << uint(level-geometry.LevelOf(conflict))
				next := (conflict + 1) * d
				if next <= i {
					next = i + 1
				}
				i = next
				continue
			}
			a.lay.occupy(i)
			offset := geo.OffsetOf(i)
			a.index[geo.UnitIndex(offset)] = uint32(i)
			a.lock.Unlock()
			s.Allocs++
			return offset, true
		}
	}
	a.lock.Unlock()
	s.AllocFails++
	return 0, false
}

// release frees the chunk at offset under the lock.
func (a *Allocator) release(offset uint64, s *alloc.Stats) {
	geo := a.geo
	if offset >= geo.Total || offset%geo.MinSize != 0 {
		panic(fmt.Sprintf("%s: Free(%#x): offset outside the managed region or unaligned", a.name, offset))
	}
	slot := geo.UnitIndex(offset)
	a.lock.Lock()
	s.LockAcq++
	n := uint64(a.index[slot])
	if n == 0 {
		a.lock.Unlock()
		panic(fmt.Sprintf("%s: Free(%#x): offset not currently allocated (double free?)", a.name, offset))
	}
	a.index[slot] = 0
	a.lay.release(n)
	a.lock.Unlock()
	s.Frees++
}

// flatLayout is the 1lvl storage: one status word per node.
type flatLayout struct {
	geo  geometry.Geometry
	tree []uint32
}

func newFlatLayout(geo geometry.Geometry) *flatLayout {
	return &flatLayout{geo: geo, tree: make([]uint32, geo.Nodes())}
}

func (l *flatLayout) free(n uint64) bool { return status.IsFree(l.tree[n]) }

func (l *flatLayout) occAncestor(n uint64) uint64 {
	for cur := geometry.Parent(n); cur >= 1 && geometry.LevelOf(cur) >= l.geo.MaxLevel; cur = geometry.Parent(cur) {
		if status.IsOcc(l.tree[cur]) {
			return cur
		}
	}
	return 0
}

func (l *flatLayout) occupy(n uint64) {
	l.tree[n] = status.Busy
	child := n
	for geometry.LevelOf(child) > l.geo.MaxLevel {
		parent := geometry.Parent(child)
		l.tree[parent] = status.Mark(l.tree[parent], child)
		child = parent
	}
}

func (l *flatLayout) release(n uint64) {
	l.tree[n] = 0
	child := n
	for geometry.LevelOf(child) > l.geo.MaxLevel {
		parent := geometry.Parent(child)
		val := status.Unmark(l.tree[parent], child)
		l.tree[parent] = val
		if status.IsOccBuddy(val, child) {
			return
		}
		child = parent
	}
}

// bunchLayout is the 4lvl storage: packed bunch words, interior node state
// derived from the bunch leaves, climbs stepping four levels per word.
type bunchLayout struct {
	geo      geometry.Geometry
	words    []uint64
	wordBase [64]uint64
}

func newBunchLayout(geo geometry.Geometry) *bunchLayout {
	l := &bunchLayout{geo: geo}
	var total uint64
	for _, lvl := range geo.LeafLevels(geometry.BunchSpan) {
		l.wordBase[lvl] = total
		total += geometry.WordsAtLevel(lvl)
	}
	l.words = make([]uint64, total)
	return l
}

func (l *bunchLayout) locate(n uint64) (word *uint64, field, count, leafLevel int) {
	first, cnt := l.geo.CoveredLeaves(n, geometry.BunchSpan)
	leafLevel = l.geo.LeafLevelFor(geometry.LevelOf(n), geometry.BunchSpan)
	w, f := geometry.WordOf(first, leafLevel)
	return &l.words[l.wordBase[leafLevel]+w], f, cnt, leafLevel
}

func (l *bunchLayout) leafField(leaf uint64, leafLevel int) (word *uint64, field int) {
	w, f := geometry.WordOf(leaf, leafLevel)
	return &l.words[l.wordBase[leafLevel]+w], f
}

func (l *bunchLayout) free(n uint64) bool {
	word, field, count, _ := l.locate(n)
	return *word&status.Fill(field, count, status.Busy) == 0
}

func (l *bunchLayout) occAncestor(n uint64) uint64 {
	// An occupied ancestor inside n's own bunch implies busy covered
	// fields, which the free() probe already rejected; only the
	// materialized ancestor leaves above the bunch need checking.
	nLevel := geometry.LevelOf(n)
	_, _, _, leafLevel := l.locate(n)
	lamStop := l.geo.LeafLevelFor(l.geo.MaxLevel, geometry.BunchSpan)
	for lam := leafLevel - geometry.BunchSpan; lam >= lamStop; lam -= geometry.BunchSpan {
		anc := geometry.AncestorAt(n, nLevel, lam)
		word, field := l.leafField(anc, lam)
		if status.IsOcc(status.Field(*word, field)) {
			return anc
		}
	}
	return 0
}

func (l *bunchLayout) occupy(n uint64) {
	nLevel := geometry.LevelOf(n)
	word, field, count, leafLevel := l.locate(n)
	*word |= status.Fill(field, count, status.Busy)
	lamStop := l.geo.LeafLevelFor(l.geo.MaxLevel, geometry.BunchSpan)
	for lam := leafLevel - geometry.BunchSpan; lam >= lamStop; lam -= geometry.BunchSpan {
		anc := geometry.AncestorAt(n, nLevel, lam)
		child := geometry.AncestorAt(n, nLevel, lam+1)
		w, f := l.leafField(anc, lam)
		*w = status.WithField(*w, f, status.Mark(status.Field(*w, f), child))
	}
}

func (l *bunchLayout) release(n uint64) {
	nLevel := geometry.LevelOf(n)
	word, field, count, leafLevel := l.locate(n)
	*word &^= status.FieldMask(field, count)
	lamStop := l.geo.LeafLevelFor(l.geo.MaxLevel, geometry.BunchSpan)
	low := *word
	for lam := leafLevel - geometry.BunchSpan; lam >= lamStop; lam -= geometry.BunchSpan {
		if low&status.Fill(0, 8, status.Busy) != 0 {
			// Some buddy within the word just left is still occupied: the
			// merge cannot propagate past it.
			return
		}
		anc := geometry.AncestorAt(n, nLevel, lam)
		child := geometry.AncestorAt(n, nLevel, lam+1)
		w, f := l.leafField(anc, lam)
		*w = status.WithField(*w, f, status.Unmark(status.Field(*w, f), child))
		low = *w
	}
}

// ChunkSize implements alloc.ChunkSizer under the instance lock.
func (a *Allocator) ChunkSize(offset uint64) uint64 {
	geo := a.geo
	if offset >= geo.Total || offset%geo.MinSize != 0 {
		panic(fmt.Sprintf("%s: ChunkSize(%#x): offset outside the managed region or unaligned", a.name, offset))
	}
	a.lock.Lock()
	n := uint64(a.index[geo.UnitIndex(offset)])
	a.lock.Unlock()
	if n == 0 {
		panic(fmt.Sprintf("%s: ChunkSize(%#x): offset not currently allocated", a.name, offset))
	}
	return geo.SizeOf(n)
}
