// Package linuxbuddy implements the paper's "linux-buddy" comparator: the
// Linux kernel zone allocator shape (kernel 3.2 era, the version the paper
// measured) — per-order free lists with split-on-allocation and buddy
// coalescing on free, serialized by one spin-lock per instance, the
// equivalent of zone->lock guarding __get_free_pages/free_pages.
//
// The managed region is viewed as an array of pages of MinSize bytes. A
// free block of order k is 2^k contiguous pages whose head page sits on
// freeLists[k]; the lists are intrusive doubly-linked lists threaded
// through a per-page record (the moral equivalent of struct page), so
// removing a specific buddy during coalescing is O(1) exactly as in the
// kernel.
package linuxbuddy

import (
	"fmt"
	"math/bits"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/spinlock"
)

func init() {
	alloc.Register("linux-buddy", func(cfg alloc.Config) (alloc.Allocator, error) {
		return New(cfg)
	})
}

const nilPage = int64(-1)

// page is the per-page bookkeeping record. A page is "buddy" (free-list
// member) only when it heads a free block; allocated block heads carry
// their order so free() needs only the offset, like free_pages with the
// order recovered from the page.
type page struct {
	next, prev int64 // free-list links, nilPage when not linked
	order      int8  // order of the block this page heads
	free       bool  // on a free list (PageBuddy)
	allocated  bool  // head of a delivered block
	flags      uint8 // per-page state flags (PG_* equivalent)
}

// Per-page flag values mimicking the prep/check cycle of the kernel.
const (
	flagPrepared uint8 = 0x1 // set by prep on allocation, cleared on free
)

// Allocator is a single-instance Linux-style buddy allocator.
type Allocator struct {
	geo      geometry.Geometry
	lock     spinlock.Locker
	pages    []page
	freeHead []int64 // freeHead[order] -> first free block head, nilPage if empty
	maxOrder int     // largest order servable (log2(MaxSize/MinSize))
	reg      alloc.Registry[*Handle]
	conv     alloc.ConvPool[*Handle] // handles behind Alloc/Free
}

// New builds a "linux-buddy" instance.
func New(cfg alloc.Config) (*Allocator, error) {
	geo, err := geometry.New(cfg.Total, cfg.MinSize, cfg.MaxSize)
	if err != nil {
		return nil, err
	}
	a := &Allocator{
		geo:      geo,
		lock:     spinlock.New(spinlock.Kind(cfg.LockKind)),
		pages:    make([]page, geo.Leaves()),
		maxOrder: geo.Depth - geo.MaxLevel,
	}
	// The kernel's MAX_ORDER caps block size; the whole region may exceed
	// it, in which case it is seeded as multiple max-order blocks.
	a.freeHead = make([]int64, a.maxOrder+1)
	for i := range a.freeHead {
		a.freeHead[i] = nilPage
	}
	for i := range a.pages {
		a.pages[i].next, a.pages[i].prev = nilPage, nilPage
	}
	blockPages := int64(1) << a.maxOrder
	for head := int64(0); head < int64(geo.Leaves()); head += blockPages {
		a.insertFree(head, a.maxOrder)
	}
	a.conv.New = a.newHandle
	return a, nil
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return "linux-buddy" }

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

// orderForSize maps a byte size to a page order (get_order).
func (a *Allocator) orderForSize(size uint64) int {
	if size <= a.geo.MinSize {
		return 0
	}
	pagesNeeded := (size + a.geo.MinSize - 1) / a.geo.MinSize
	order := bits.Len64(pagesNeeded - 1)
	return order
}

// alloc is __rmqueue: find the smallest populated order ≥ the request,
// detach the block, and give the unused halves back one order at a time
// (the kernel's expand()).
func (a *Allocator) alloc(size uint64, s *alloc.Stats) (uint64, bool) {
	if size > a.geo.MaxSize {
		s.AllocFails++
		return 0, false
	}
	order := a.orderForSize(size)
	a.lock.Lock()
	s.LockAcq++
	cur := order
	for cur <= a.maxOrder && a.freeHead[cur] == nilPage {
		cur++
	}
	if cur > a.maxOrder {
		a.lock.Unlock()
		s.AllocFails++
		return 0, false
	}
	head := a.removeHead(cur)
	// expand(): return the tail halves of the oversized block.
	for cur > order {
		cur--
		buddy := head + int64(1)<<cur
		a.insertFree(buddy, cur)
	}
	a.pages[head].order = int8(order)
	a.pages[head].allocated = true
	// prep_new_page: the kernel prepares every page of the block before
	// handing it out (flag checks, refcount init, clearing PG_buddy);
	// this O(2^order) per-page walk is an intrinsic cost of the Linux
	// allocation path for high-order blocks and part of what the paper
	// measures in Figure 12.
	for p := head; p < head+int64(1)<<order; p++ {
		if a.pages[p].free && p != head {
			a.lock.Unlock()
			panic(fmt.Sprintf("linux-buddy: page %d inside delivered block still on a free list", p))
		}
		a.pages[p].flags = flagPrepared
	}
	a.lock.Unlock()
	s.Allocs++
	return uint64(head) * a.geo.MinSize, true
}

// release is __free_pages_ok/__free_one_page: push the block back and
// greedily merge with its buddy while the buddy is a free block of the
// same order.
func (a *Allocator) release(offset uint64, s *alloc.Stats) {
	geo := a.geo
	if offset >= geo.Total || offset%geo.MinSize != 0 {
		panic(fmt.Sprintf("linux-buddy: Free(%#x): offset outside the managed region or unaligned", offset))
	}
	head := int64(offset / geo.MinSize)
	a.lock.Lock()
	s.LockAcq++
	if !a.pages[head].allocated {
		a.lock.Unlock()
		panic(fmt.Sprintf("linux-buddy: Free(%#x): offset not currently allocated (double free?)", offset))
	}
	order := int(a.pages[head].order)
	a.pages[head].allocated = false
	// free_pages_check: the kernel validates and clears the state of
	// every page of the block before it re-enters the free lists, the
	// release-side twin of prep_new_page.
	for p := head; p < head+int64(1)<<order; p++ {
		if a.pages[p].flags != flagPrepared {
			a.lock.Unlock()
			panic(fmt.Sprintf("linux-buddy: Free(%#x): page %d has bad state %#x", offset, p, a.pages[p].flags))
		}
		a.pages[p].flags = 0
	}
	for order < a.maxOrder {
		buddy := head ^ int64(1)<<order
		if buddy >= int64(len(a.pages)) || !a.pages[buddy].free || int(a.pages[buddy].order) != order {
			break
		}
		a.removeFree(buddy, order)
		if buddy < head {
			head = buddy
		}
		order++
	}
	a.insertFree(head, order)
	a.lock.Unlock()
	s.Frees++
}

// insertFree pushes a block head onto its order's free list.
func (a *Allocator) insertFree(head int64, order int) {
	p := &a.pages[head]
	p.free = true
	p.order = int8(order)
	p.prev = nilPage
	p.next = a.freeHead[order]
	if p.next != nilPage {
		a.pages[p.next].prev = head
	}
	a.freeHead[order] = head
}

// removeFree unlinks a specific block head from its order's free list —
// the O(1) detach that coalescing relies on.
func (a *Allocator) removeFree(head int64, order int) {
	p := &a.pages[head]
	if p.prev != nilPage {
		a.pages[p.prev].next = p.next
	} else {
		a.freeHead[order] = p.next
	}
	if p.next != nilPage {
		a.pages[p.next].prev = p.prev
	}
	p.free = false
	p.next, p.prev = nilPage, nilPage
}

// removeHead pops the first block of an order's free list.
func (a *Allocator) removeHead(order int) int64 {
	head := a.freeHead[order]
	a.removeFree(head, order)
	return head
}

// ChunkSize implements alloc.ChunkSizer: the block order is recovered from
// the head page record, as free_pages does.
func (a *Allocator) ChunkSize(offset uint64) uint64 {
	geo := a.geo
	if offset >= geo.Total || offset%geo.MinSize != 0 {
		panic(fmt.Sprintf("linux-buddy: ChunkSize(%#x): offset outside the managed region or unaligned", offset))
	}
	head := offset / geo.MinSize
	a.lock.Lock()
	p := a.pages[head]
	a.lock.Unlock()
	if !p.allocated {
		panic(fmt.Sprintf("linux-buddy: ChunkSize(%#x): offset not currently allocated", offset))
	}
	return geo.MinSize << uint(p.order)
}
