package alloc

import (
	"maps"
	"sync"
	"sync/atomic"
)

// Registry is the handle bookkeeping every layer shares: the live handles
// a layer's quiescent Stats, LayerStats and Scrub walk, and the retained
// counters of closed ones, so totals keep adding up across worker churn.
// Layers register in NewHandle and unregister in Close, never on an
// operation. The zero value is ready to use.
type Registry[H interface {
	comparable
	Stats() *Stats
}] struct {
	mu     sync.Mutex
	live   []H
	closed Stats
}

// Add registers a live handle.
func (r *Registry[H]) Add(h H) {
	r.mu.Lock()
	r.live = append(r.live, h)
	r.mu.Unlock()
}

// Remove unregisters h, folding its counters into the retained totals and
// running fold, when non-nil, under the same lock so a layer can retain
// its own per-handle extras. It reports whether h was registered: a second
// Remove of the same handle folds nothing.
func (r *Registry[H]) Remove(h H, fold func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, other := range r.live {
		if other != h {
			continue
		}
		last := len(r.live) - 1
		r.live[i] = r.live[last]
		var zero H
		r.live[last] = zero
		r.live = r.live[:last]
		r.closed.Add(*h.Stats())
		if fold != nil {
			fold()
		}
		return true
	}
	return false
}

// Stats returns the retained counters plus those of every live handle.
// Like every Stats, it is for quiescent points.
func (r *Registry[H]) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.closed
	for _, h := range r.live {
		total.Add(*h.Stats())
	}
	return total
}

// Len returns the number of registered (not yet closed) handles — the
// diagnostic behind every layer's Handles method.
func (r *Registry[H]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.live)
}

// Walk runs fn over the live handles under the registry lock — the lock
// Remove's fold runs under — so a layer can total its per-handle extras
// together with the extras it retained. fn must not call back into the
// registry or retain the slice.
func (r *Registry[H]) Walk(fn func(live []H)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fn(r.live)
}

// ConvPool keeps the idle convenience handles that serve a layer's own
// thread-safe Alloc/Free: one mutex-guarded LIFO, not a sync.Pool, so the
// number of registered convenience handles is bounded by the peak
// concurrency of the convenience path. A sync.Pool drops idle items at
// every GC (and at random under the race detector), and each dropped
// handle would stay registered forever. The zero value is ready to use
// once New is set.
type ConvPool[H any] struct {
	// New builds and registers a handle when Borrow finds no idle one.
	New func() H

	mu   sync.Mutex
	free []H
}

// Borrow pops an idle handle, or builds a fresh one with New when none
// is idle.
func (p *ConvPool[H]) Borrow() H {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return h
	}
	p.mu.Unlock()
	return p.New()
}

// Return parks a borrowed handle for the next Borrow.
func (p *ConvPool[H]) Return(h H) {
	p.mu.Lock()
	p.free = append(p.free, h)
	p.mu.Unlock()
}

// DrainFence is the drain fence the caching layers (frontend, slab)
// share. Their elastic drain hook records the retiring offset window with
// Arm, which then advances the epoch; each handle compares the epoch with
// the one it last saw on its next operation — one atomic load — and
// flushes the magazines holding an offset inside a recorded window, so a
// draining instance's live count converges without waiting for an idle
// worker to churn or for a quiescent Scrub. Windows are never pruned: a
// stale window is harmless, because magazines can never hold offsets of
// memory that was actually retired. The zero value is ready to use.
type DrainFence struct {
	epoch atomic.Uint64
	mu    sync.Mutex
	wins  DrainWindows
}

// DrainWindows maps the low end of each recorded window to its high end.
type DrainWindows map[uint64]uint64

// Epoch returns the current epoch; a handle that last saw another one
// catches up through Windows.
func (f *DrainFence) Epoch() uint64 { return f.epoch.Load() }

// Arm records the window [lo, hi) and advances the epoch.
func (f *DrainFence) Arm(lo, hi uint64) {
	f.mu.Lock()
	if f.wins == nil {
		f.wins = DrainWindows{}
	}
	if hi > f.wins[lo] {
		f.wins[lo] = hi
	}
	f.mu.Unlock()
	f.epoch.Add(1)
}

// Windows snapshots the recorded windows.
func (f *DrainFence) Windows() DrainWindows {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.wins)
}

// Contains reports whether off lies inside a recorded window.
func (w DrainWindows) Contains(off uint64) bool {
	for lo, hi := range w {
		if off >= lo && off < hi {
			return true
		}
	}
	return false
}
