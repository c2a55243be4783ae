package bunch

import (
	"repro/internal/alloc"
	"repro/internal/spinlock"
)

// lockedAllocator is the leaf under the SL discipline (see the package
// comment): the embedded allocator with its lock set. Its operations and
// its handles' wrap the NB methods, which never lock, in one critical
// section that counts one LockAcq and is released by a defer, also when the
// operation panics on misuse; the NB path itself gains no defer.
type lockedAllocator struct{ *Allocator }

// lockedHandle is the per-worker face of an SL leaf.
type lockedHandle struct{ *Handle }

func newLocked(name string, k int, cfg alloc.Config) (alloc.Allocator, error) {
	a, err := newAllocator(name, k, cfg.Total, cfg.MinSize, cfg.MaxSize, nil)
	if err != nil {
		return nil, err
	}
	a.lock = spinlock.New(spinlock.Kind(cfg.LockKind))
	return lockedAllocator{a}, nil
}

// lock opens a critical section and counts it.
func (h *Handle) lock() {
	h.a.lock.Lock()
	h.stats.LockAcq++
}

// NewHandle implements alloc.Allocator.
func (a lockedAllocator) NewHandle() alloc.Handle { return lockedHandle{a.newHandle()} }

// Alloc, Free, AllocBatch and FreeBatch implement alloc.Handle and
// alloc.BatchHandle, one critical section per call; an empty batch
// request (n <= 0) opens none and, like the NB path, counts nothing.
func (h lockedHandle) Alloc(size uint64) (uint64, bool) {
	h.lock()
	defer h.a.lock.Unlock()
	return h.Handle.Alloc(size)
}

func (h lockedHandle) Free(offset uint64) {
	h.lock()
	defer h.a.lock.Unlock()
	h.Handle.Free(offset)
}

func (h lockedHandle) AllocBatch(size uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	h.lock()
	defer h.a.lock.Unlock()
	return h.Handle.AllocBatch(size, n)
}

func (h lockedHandle) FreeBatch(offsets []uint64) {
	h.lock()
	defer h.a.lock.Unlock()
	h.Handle.FreeBatch(offsets)
}

// section runs op as one critical section on a recycled convenience
// handle. The allocator-level operations below are built on it.
func (a lockedAllocator) section(op func(h *Handle)) {
	h := a.conv.Borrow()
	defer a.conv.Return(h)
	h.lock()
	defer a.lock.Unlock()
	op(h)
}

func (a lockedAllocator) Alloc(size uint64) (off uint64, ok bool) {
	a.section(func(h *Handle) { off, ok = h.Alloc(size) })
	return off, ok
}

func (a lockedAllocator) Free(offset uint64) { a.section(func(h *Handle) { h.Free(offset) }) }

func (a lockedAllocator) AllocBatch(size uint64, n int) (out []uint64) {
	if n <= 0 {
		return nil
	}
	a.section(func(h *Handle) { out = h.AllocBatch(size, n) })
	return out
}

func (a lockedAllocator) FreeBatch(offsets []uint64) {
	a.section(func(h *Handle) { h.FreeBatch(offsets) })
}

func (a lockedAllocator) ChunkSize(offset uint64) (size uint64) {
	a.section(func(*Handle) { size = a.Allocator.ChunkSize(offset) })
	return size
}
