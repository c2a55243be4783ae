package main

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
)

// worker is one closed-loop caller: it owns a handle, replays its tape and
// waits for every reply before issuing the next request.
type worker struct {
	id   int
	h    alloc.Handle
	tape tape
	pos  uint64 // tape position; persists across windows

	// Counters of the current window.
	allocs, frees, fails uint64
	blocks               uint64 // check points passed (budgeted passes)
	elapsed              int64
	allocHist, freeHist  hist
	allocCD, freeCD      int
	every                int // the workload's latencyEvery

	// live is this worker's signed share of the live requested bytes
	// (the allocating worker adds, the freeing worker subtracts, so the
	// shares only mean something summed). hiLive/loLive accumulate it at
	// the workload's high- and low-water points.
	live           int64
	hiLive, loLive liveSum

	poll func(w *worker) // nil on stacks without an elastic manager

	state any // workload-private
	ctx   *wctx
	_     [64]byte
}

type liveSum struct {
	sum float64
	n   uint64
}

func (s *liveSum) add(v int64) { s.sum += float64(v); s.n++ }
func (s *liveSum) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

func (w *worker) alloc(size uint64) (uint64, bool) {
	var off uint64
	var ok bool
	if w.allocCD--; w.allocCD > 0 {
		off, ok = w.h.Alloc(size)
	} else {
		w.allocCD = w.every
		t0 := nanotime()
		off, ok = w.h.Alloc(size)
		w.allocHist.record(nanotime() - t0)
	}
	if ok {
		w.allocs++
	} else {
		w.fails++
	}
	return off, ok
}

func (w *worker) free(off uint64) {
	if w.freeCD--; w.freeCD > 0 {
		w.h.Free(off)
	} else {
		w.freeCD = w.every
		t0 := nanotime()
		w.h.Free(off)
		w.freeHist.record(nanotime() - t0)
	}
	w.frees++
}

func (w *worker) resetWindow() {
	w.allocs, w.frees, w.fails, w.blocks, w.elapsed = 0, 0, 0, 0, 0
	w.allocHist, w.freeHist = hist{}, hist{}
	w.allocCD, w.freeCD = w.every, w.every
	w.hiLive, w.loLive = liveSum{}, liveSum{}
}

// window is one measured (or budgeted) stretch of a workload's loop.
type window struct {
	deadline int64  // nanotime at which workers stop (fixed-time windows)
	budget   uint64 // check points after which workers stop (0 = use deadline)
	active   int    // workers running
	bar      barrier
	stop     atomic.Bool // barrier-coordinated workloads: set by the last arriver
	// Committed-per-live ratios taken at synchronized high- and low-water
	// points (by the barrier's last arriver, so appends never race).
	hiRatios, loRatios []float64
	committed          []uint64
	cycles             uint64
}

// done is the workers' check point: every 64 ops in the churn loops.
func (win *window) done(w *worker) bool {
	w.blocks++
	if win.budget > 0 {
		return w.blocks >= win.budget
	}
	return nanotime() >= win.deadline
}

// endCycle is the barrier that closes one whole cycle of a
// phase-synchronized workload: the last arriver runs atLow (a quiescent
// point), counts the cycle and decides, for every worker at once, whether
// the window is over.
func (win *window) endCycle(sense *uint32, atLow func()) bool {
	win.bar.wait(sense, func() {
		if atLow != nil {
			atLow()
		}
		win.cycles++
		if win.budget > 0 && win.cycles >= win.budget || win.budget == 0 && nanotime() >= win.deadline {
			win.stop.Store(true)
		}
	})
	return win.stop.Load()
}

// barrier is a sense-reversing spin barrier for the phase-synchronized
// workload. Workers never outnumber GOMAXPROCS, so spinning with Gosched
// costs less than parking.
type barrier struct {
	n     int32
	count atomic.Int32
	sense atomic.Uint32
}

// wait blocks until all n workers arrived; the last one runs last() while
// the others are still held, which makes it a quiescent point.
func (b *barrier) wait(local *uint32, last func()) {
	*local ^= 1
	if b.count.Add(1) == b.n {
		if last != nil {
			last()
		}
		b.count.Store(0)
		b.sense.Store(*local)
		return
	}
	for b.sense.Load() != *local {
		runtime.Gosched()
	}
}

// runWorkers runs fn on one goroutine per worker and waits for all.
func runWorkers(ws []*worker, tr *tracer, fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr != nil {
				defer tr.enter(w.ctx)()
			}
			fn(w)
		}()
	}
	wg.Wait()
}

// windowResult is what one window measured.
type windowResult struct {
	ops, allocs, fails uint64
	seconds            float64
	opsPerS            float64
	alloc, free        hist
	// committed bytes per live requested byte at the workload's high- and
	// low-water points.
	perLiveHi, perLiveLo float64
	committed            []uint64 // committed bytes at each synchronized sample
	cycles               uint64   // whole cycles (phase-synchronized workload)
}

// add accumulates another window's counts, time, samples and cycles.
func (r *windowResult) add(o *windowResult) {
	r.ops += o.ops
	r.allocs += o.allocs
	r.fails += o.fails
	r.seconds += o.seconds
	r.alloc.merge(&o.alloc)
	r.free.merge(&o.free)
	r.committed = append(r.committed, o.committed...)
	r.cycles += o.cycles
}

// measure runs one fixed-time (seconds > 0) or budgeted window of wl over
// the given workers and gathers their counters.
func (e *env) measure(ws []*worker, seconds float64, budget uint64) *windowResult {
	res := &windowResult{}
	win := &window{budget: budget, active: len(ws)}
	win.bar.n = int32(len(ws))
	win.deadline = math.MaxInt64
	for _, w := range ws {
		w.resetWindow()
	}
	runtime.GC()
	if seconds > 0 {
		win.deadline = nanotime() + int64(seconds*1e9)
	}
	runWorkers(ws, e.tr, func(w *worker) {
		t0 := nanotime()
		e.wl.run(e, w, win)
		w.elapsed = nanotime() - t0
	})
	var maxElapsed int64
	var hiLive, loLive float64
	for _, w := range ws {
		res.ops += w.allocs + w.frees
		res.allocs += w.allocs
		res.fails += w.fails
		res.alloc.merge(&w.allocHist)
		res.free.merge(&w.freeHist)
		hiLive += w.hiLive.mean()
		loLive += w.loLive.mean()
		if w.elapsed > maxElapsed {
			maxElapsed = w.elapsed
		}
		// Each worker's rate over its own elapsed time: a worker that
		// noticed the deadline a few µs late is not charged to the others.
		res.opsPerS += float64(w.allocs+w.frees) / (float64(w.elapsed) / 1e9)
	}
	res.seconds = float64(maxElapsed) / 1e9
	res.committed, res.cycles = win.committed, win.cycles
	if len(win.hiRatios) > 0 {
		res.perLiveHi, res.perLiveLo = median(win.hiRatios), median(win.loRatios)
	} else {
		// Idle workers' working sets stay allocated, so they count as live.
		for _, w := range e.workers[len(ws):] {
			hiLive += float64(w.live)
			loLive += float64(w.live)
		}
		c := float64(e.committed())
		res.perLiveHi, res.perLiveLo = c/hiLive, c/loLive
	}
	return res
}
