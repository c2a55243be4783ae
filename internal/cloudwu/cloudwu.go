// Package cloudwu implements the paper's "buddy-sl" baseline [21]: the
// tree-based buddy allocator of github.com/cloudwu/buddy (buddy.c), made
// thread-safe the way the paper's evaluation uses it — by wrapping every
// operation in one global spin-lock.
//
// Unlike the status-bit tree of the non-blocking buddy system, this design
// stores one of four states per node — UNUSED, USED, SPLIT, FULL — and
// allocates by descending from the root, splitting UNUSED nodes on the
// way down, then repairing FULL marks on the way back up. Frees locate the
// serving node by descending along SPLIT nodes toward the freed offset and
// merge buddies bottom-up. The state machine is inherently sequential,
// which is exactly why it needs the lock.
package cloudwu

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/spinlock"
)

func init() {
	alloc.Register("buddy-sl", func(cfg alloc.Config) (alloc.Allocator, error) {
		return New(cfg)
	})
}

// Node states, as in buddy.c.
const (
	unused uint8 = iota // chunk entirely free
	used                // chunk delivered by an allocation
	split               // chunk divided; children carry the state
	full                // chunk divided and no free space anywhere below
)

// Allocator is a spin-lock protected cloudwu tree buddy.
type Allocator struct {
	geo  geometry.Geometry
	lock spinlock.Locker
	// tree stores the node states with the root at index 1 (buddy.c uses
	// 0-based indexing; the offset math is otherwise identical).
	tree []uint8
	reg  alloc.Registry[*Handle]
	conv alloc.ConvPool[*Handle] // handles behind Alloc/Free
}

// New builds a "buddy-sl" instance.
func New(cfg alloc.Config) (*Allocator, error) {
	geo, err := geometry.New(cfg.Total, cfg.MinSize, cfg.MaxSize)
	if err != nil {
		return nil, err
	}
	a := &Allocator{
		geo:  geo,
		lock: spinlock.New(spinlock.Kind(cfg.LockKind)),
		tree: make([]uint8, geo.Nodes()),
	}
	a.conv.New = a.newHandle
	return a, nil
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "buddy-sl" }

// Geometry implements alloc.Allocator.
func (a *Allocator) Geometry() geometry.Geometry { return a.geo }

// Alloc implements alloc.Allocator through a recycled convenience
// handle, so its counters land in Stats like every handle's.
func (a *Allocator) Alloc(size uint64) (uint64, bool) {
	h := a.conv.Borrow()
	defer a.conv.Return(h)
	return h.Alloc(size)
}

// Free implements alloc.Allocator through a recycled convenience handle.
func (a *Allocator) Free(offset uint64) {
	h := a.conv.Borrow()
	defer a.conv.Return(h)
	h.Free(offset)
}

// NewHandle implements alloc.Allocator.
func (a *Allocator) NewHandle() alloc.Handle { return a.newHandle() }

func (a *Allocator) newHandle() *Handle {
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

func (a *Allocator) alloc(size uint64, s *alloc.Stats) (uint64, bool) {
	geo := a.geo
	if size > geo.MaxSize {
		s.AllocFails++
		return 0, false
	}
	level := geo.LevelForSize(size)
	a.lock.Lock()
	s.LockAcq++
	n, ok := a.descend(1, level)
	a.lock.Unlock()
	if !ok {
		s.AllocFails++
		return 0, false
	}
	s.Allocs++
	return geo.OffsetOf(n), true
}

// descend searches the subtree of n for an UNUSED node at the target
// level, splitting on the way down and repairing FULL marks on the way up
// (buddy.c's combined _alloc walk).
func (a *Allocator) descend(n uint64, targetLevel int) (uint64, bool) {
	switch {
	case geometry.LevelOf(n) == targetLevel:
		if a.tree[n] != unused {
			return 0, false
		}
		a.tree[n] = used
		return n, true
	case a.tree[n] == used || a.tree[n] == full:
		return 0, false
	case a.tree[n] == unused:
		a.tree[n] = split
		a.tree[geometry.Left(n)] = unused
		a.tree[geometry.Right(n)] = unused
	}
	// tree[n] == split: try the left subtree, then the right.
	got, ok := a.descend(geometry.Left(n), targetLevel)
	if !ok {
		got, ok = a.descend(geometry.Right(n), targetLevel)
	}
	if ok && a.closed(geometry.Left(n)) && a.closed(geometry.Right(n)) {
		a.tree[n] = full
	}
	return got, ok
}

// closed reports whether no allocation can be served below n.
func (a *Allocator) closed(n uint64) bool {
	return a.tree[n] == used || a.tree[n] == full
}

func (a *Allocator) release(offset uint64, s *alloc.Stats) {
	geo := a.geo
	if offset >= geo.Total || offset%geo.MinSize != 0 {
		panic(fmt.Sprintf("buddy-sl: Free(%#x): offset outside the managed region or unaligned", offset))
	}
	a.lock.Lock()
	s.LockAcq++
	if !a.freeWalk(1, offset) {
		a.lock.Unlock()
		panic(fmt.Sprintf("buddy-sl: Free(%#x): offset not currently allocated (double free?)", offset))
	}
	a.lock.Unlock()
	s.Frees++
}

// freeWalk descends along SPLIT/FULL nodes toward the offset until it hits
// the USED node serving it, marks it UNUSED, and merges/unmarks on the way
// back up: two UNUSED children collapse into an UNUSED parent, and any
// FULL ancestor on the path reopens to SPLIT.
func (a *Allocator) freeWalk(n uint64, offset uint64) bool {
	switch a.tree[n] {
	case used:
		if a.geo.OffsetOf(n) != offset {
			return false
		}
		a.tree[n] = unused
		return true
	case unused:
		return false
	}
	// split or full: recurse into the half containing the offset.
	child := geometry.Left(n)
	if offset >= a.geo.OffsetOf(n)+a.geo.SizeOf(n)/2 {
		child = geometry.Right(n)
	}
	if !a.freeWalk(child, offset) {
		return false
	}
	l, r := geometry.Left(n), geometry.Right(n)
	if a.tree[l] == unused && a.tree[r] == unused {
		a.tree[n] = unused
	} else {
		a.tree[n] = split
	}
	return true
}

// ChunkSize implements alloc.ChunkSizer by descending along SPLIT nodes
// toward the offset until the USED node serving it, mirroring freeWalk.
func (a *Allocator) ChunkSize(offset uint64) uint64 {
	geo := a.geo
	if offset >= geo.Total || offset%geo.MinSize != 0 {
		panic(fmt.Sprintf("buddy-sl: ChunkSize(%#x): offset outside the managed region or unaligned", offset))
	}
	a.lock.Lock()
	n := uint64(1)
	for {
		switch a.tree[n] {
		case used:
			size := geo.SizeOf(n)
			haveOff := geo.OffsetOf(n)
			a.lock.Unlock()
			if haveOff != offset {
				panic(fmt.Sprintf("buddy-sl: ChunkSize(%#x): offset is interior to a chunk", offset))
			}
			return size
		case split, full:
			child := geometry.Left(n)
			if offset >= geo.OffsetOf(n)+geo.SizeOf(n)/2 {
				child = geometry.Right(n)
			}
			n = child
		default: // unused
			a.lock.Unlock()
			panic(fmt.Sprintf("buddy-sl: ChunkSize(%#x): offset not currently allocated", offset))
		}
	}
}
