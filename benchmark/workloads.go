package main

import (
	"fmt"
	"sync/atomic"

	nbbs "repro"
	"repro/internal/alloc"
)

// Geometry of the paper's user-space instance: 64 MiB span, 8 B minimum,
// 16 KiB maximum chunk.
const (
	leafVariant = nbbs.Variant4Lvl
	spanBytes   = 64 << 20
	minChunk    = 8
	maxChunk    = 16 << 10
)

// shippingStack is the composite we would ship on <= 4 cores: slab over
// depot-backed magazines over a 4-instance router of 4lvl-nb leaves.
var shippingStack = stackSpec{total: spanBytes / 4, minSize: minChunk, maxSize: maxChunk,
	instances: 4, slab: true, depot: true}

// workload is a stack configuration plus the traffic that drives it.
type workload interface {
	name() string
	why() string
	spec() stackSpec
	// init builds the per-worker state (tapes, tables) and whatever the
	// workload plants before workers run; part of set-up. The warm-up that
	// follows fills the working sets through run itself.
	init(e *env) error
	// run is the timed loop; it returns when win says so.
	run(e *env, w *worker, win *window)
	// budgets are the check points (64-op blocks; whole cycles for the
	// phase-synchronized workload) of the warm-up and of the checked pass.
	budgets() (warm, check uint64)
	// latencyEvery is the countdown between sampled calls, kept separately
	// for allocs and frees. It is always prime: the churn loops alternate
	// free and alloc, and a shared even countdown would sample only one of
	// the two. Workloads with slow ops sample more often, so every window
	// has the >= 1000 samples a p99 needs, at the same <= 1 % cost.
	latencyEvery() int
	// drain frees everything w (and, for worker 0, init) still holds.
	drain(e *env, w *worker)
}

var workloads = []workload{churnSmall{}, handoff{}, batchSwing{}, treeNearfull{}, burstElastic{}}

func workloadByName(name string) workload {
	for _, wl := range workloads {
		if wl.name() == name {
			return wl
		}
	}
	return nil
}

// ---- churn-small ----------------------------------------------------

const churnSlots = 256

type churnSlot struct {
	off  uint64
	size uint32
	ok   bool
}

type churnSmall struct{}

func (churnSmall) name() string    { return "churn-small" }
func (churnSmall) spec() stackSpec { return shippingStack }
func (churnSmall) why() string {
	return "private 256-slot working sets of 8 B-1 KiB objects: slab magazines do the work, the tree almost none"
}

func (churnSmall) budgets() (uint64, uint64) { return 4096, 2048 }
func (churnSmall) latencyEvery() int         { return 251 }

func (churnSmall) init(e *env) error {
	for _, w := range e.workers {
		w.tape = genTape(e.seed, w.id, churnSlots, logUniform)
		w.state = make([]churnSlot, churnSlots)
	}
	return nil
}

func (churnSmall) run(e *env, w *worker, win *window) {
	slots := w.state.([]churnSlot)
	t, i := w.tape, w.pos
	for {
		for k := 0; k < 32; k++ { // 32 iterations = 64 ops
			ent := t[i&tapeMask]
			i++
			s := &slots[ent&0xFFFFFFFF]
			if s.ok {
				w.free(s.off)
				w.live -= int64(s.size)
			}
			size := ent >> 32
			if s.off, s.ok = w.alloc(size); s.ok {
				s.size = uint32(size)
				w.live += int64(size)
			}
		}
		w.hiLive.add(w.live)
		w.loLive.add(w.live)
		if win.done(w) {
			break
		}
	}
	w.pos = i
}

func (churnSmall) drain(e *env, w *worker) {
	slots := w.state.([]churnSlot)
	for i := range slots {
		if slots[i].ok {
			w.h.Free(slots[i].off)
			w.live -= int64(slots[i].size)
			slots[i].ok = false
		}
	}
}

// ---- handoff --------------------------------------------------------

// outSlot is one outbox cell, padded to a cache line so the table itself
// adds no false sharing on top of the hand-off it models. It holds
// (offset+1)<<16 | requested size, 0 when empty.
type outSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// outbox is one worker's hand-off table. put is written by the owner,
// taken by whichever worker empties the table in the current window; the
// owner's live bytes are the difference.
type outbox struct {
	slots []outSlot
	put   uint64
	taken atomic.Uint64
}

type handoff struct{}

func (handoff) name() string    { return "handoff" }
func (handoff) spec() stackSpec { return shippingStack }
func (handoff) why() string {
	return "same stack and sizes, every free is remote (outbox swap with the next worker): spill/depot exchange instead of hits"
}

func (handoff) budgets() (uint64, uint64) { return 4096, 2048 }
func (handoff) latencyEvery() int         { return 251 }

func (handoff) init(e *env) error {
	for _, w := range e.workers {
		w.tape = genTape(e.seed, w.id, churnSlots, logUniform)
		w.state = &outbox{slots: make([]outSlot, churnSlots)}
	}
	return nil
}

// run: each iteration takes whatever the next worker parked in a random
// cell of its outbox and frees it (a remote free whenever T >= 2), then
// parks a fresh chunk in the same cell of its own outbox if the previous
// tenant has been taken. Only the owner fills a cell and only the
// neighbour empties it, so a cell seen empty stays empty until refilled.
func (handoff) run(e *env, w *worker, win *window) {
	own := w.state.(*outbox)
	next := e.workers[(w.id+1)%win.active].state.(*outbox)
	taken := next.taken.Load() // this worker is next's only taker in this window
	t, i := w.tape, w.pos
	for {
		for k := 0; k < 32; k++ {
			ent := t[i&tapeMask]
			i++
			slot := ent & 0xFFFFFFFF
			if v := next.slots[slot].v.Swap(0); v != 0 {
				w.free(v>>16 - 1)
				taken += v & 0xFFFF
			}
			if own.slots[slot].v.Load() == 0 {
				size := ent >> 32
				if off, ok := w.alloc(size); ok {
					own.slots[slot].v.Store((off+1)<<16 | size)
					own.put += size
				}
			}
		}
		next.taken.Store(taken)
		w.live = int64(own.put - own.taken.Load())
		w.hiLive.add(w.live)
		w.loLive.add(w.live)
		if win.done(w) {
			break
		}
	}
	w.pos = i
}

func (handoff) drain(e *env, w *worker) {
	own := w.state.(*outbox)
	for i := range own.slots {
		if v := own.slots[i].v.Swap(0); v != 0 {
			w.h.Free(v>>16 - 1)
		}
	}
	w.live = 0
}

// ---- batch-swing ----------------------------------------------------

const (
	swingChunk = 4 << 10 // above the 2 KiB slab cutoff
	// swingFloorDiv: a swing frees all but 1/16 of its chunks, so the
	// committed-per-live ratio at the trough stays finite.
	swingFloorDiv = 16
)

type swingState struct {
	offs  []uint64
	n     int // chunks at the top of a swing
	sense uint32
}

type batchSwing struct{}

func (batchSwing) name() string    { return "batch-swing" }
func (batchSwing) spec() stackSpec { return shippingStack }
func (batchSwing) why() string {
	return "every worker fills a quarter-span/T of 4 KiB chunks, then frees them in order: magazines and depot overflow, batched refills/drains reach the leaves"
}

func (batchSwing) budgets() (uint64, uint64) { return 4, 8 }
func (batchSwing) latencyEvery() int         { return 251 }

func (batchSwing) init(e *env) error {
	n := spanBytes / 4 / e.T / swingChunk
	for _, w := range e.workers {
		w.state = &swingState{offs: make([]uint64, 0, n), n: n}
	}
	return nil
}

// run swings in step with the other workers: all fill, all free. Left to
// drift, two workers alternate between opposed phases (one's frees feed
// the other's allocs through the depot) and aligned ones (the depot
// overflows into the leaves), and the throughput follows whichever regime
// a run happens to sit in. Only whole swings are counted.
func (batchSwing) run(e *env, w *worker, win *window) {
	s := w.state.(*swingState)
	floor := s.n / swingFloorDiv
	for {
		for len(s.offs) < s.n {
			off, ok := w.alloc(swingChunk)
			if !ok {
				break // never seen: the swings top out at a quarter of the span
			}
			s.offs = append(s.offs, off)
			w.live += swingChunk
		}
		w.hiLive.add(w.live)
		win.bar.wait(&s.sense, nil)
		for _, off := range s.offs[floor:] {
			w.free(off)
			w.live -= swingChunk
		}
		s.offs = s.offs[:floor]
		w.loLive.add(w.live)
		if win.endCycle(&s.sense, nil) {
			return
		}
	}
}

func (batchSwing) drain(e *env, w *worker) {
	s := w.state.(*swingState)
	for _, off := range s.offs {
		w.h.Free(off)
	}
	s.offs = s.offs[:0]
	w.live = 0
}

// ---- tree-nearfull --------------------------------------------------

const (
	plantChunk   = 128
	nearfullFree = spanBytes / 10 // bytes released after planting the span full
)

// nearfullClasses are the five size classes of the churn, largest first:
// that is the order a cycle fills them in.
var nearfullClasses = [5]uint64{2048, 1024, 512, 256, 128}

type treeSlot struct {
	off uint64
	ok  bool
}

type treeState struct {
	slots    []treeSlot
	classEnd [len(nearfullClasses)]int // slots[classEnd[c-1]:classEnd[c]] hold class c
	sense    uint32
	planted  []uint64 // worker 0 only: chunks held until the drain
}

type treeNearfull struct{}

func (treeNearfull) name() string { return "tree-nearfull" }
func (treeNearfull) why() string {
	return "bare 4lvl-nb leaf swung between 90 % and 91.25 % occupancy, single-op, five classes: the tree does all the work where its scan is slowest"
}
func (treeNearfull) spec() stackSpec {
	return stackSpec{total: spanBytes, minSize: minChunk, maxSize: maxChunk}
}

// A near-full first-fit scan costs tens of µs, so one cycle warms up, two
// are checked, and every 7th call is timed.
func (treeNearfull) budgets() (uint64, uint64) { return 1, 2 }
func (treeNearfull) latencyEvery() int         { return 7 }

// init plants the span full of 128 B chunks, releases a seeded set of
// aligned blocks (equal bytes per class, 10 % of the span in total), and
// sizes the workers' slot tables to re-take an eighth of them: a cycle
// then swings occupancy between 90 % and 91.25 %.
func (treeNearfull) init(e *env) error {
	h := e.newHandle()
	all := alloc.HandleAllocBatch(h, plantChunk, spanBytes/plantChunk)
	if len(all) != spanBytes/plantChunk {
		return fmt.Errorf("tree-nearfull: planted %d of %d chunks", len(all), spanBytes/plantChunk)
	}
	// The batch delivers one chunk per 128 B unit of the span; index them
	// by unit so aligned blocks can be released wholesale.
	byUnit := make([]uint64, len(all))
	held := make([]bool, len(all))
	for _, off := range all {
		byUnit[off/plantChunk] = off
		held[off/plantChunk] = true
	}
	rng := workerRNG(e.seed, 1<<20)
	var release []uint64
	perClass := uint64(nearfullFree / len(nearfullClasses))
	for _, class := range nearfullClasses {
		units := class / plantChunk
		blocks := uint64(len(all)) / units
		for freed := uint64(0); freed < perClass; {
			b := rng.below(blocks) * units
			whole := true
			for u := b; u < b+units; u++ {
				whole = whole && held[u]
			}
			if !whole {
				continue // overlaps a block already released
			}
			for u := b; u < b+units; u++ {
				held[u] = false
				release = append(release, byUnit[u])
			}
			freed += class
		}
	}
	alloc.HandleFreeBatch(h, release)
	alloc.CloseHandle(h)
	var planted []uint64
	for u, ok := range held {
		if ok {
			planted = append(planted, byUnit[u])
		}
	}

	// Each worker re-takes 1/(8T) of every class's released blocks: enough
	// cycles fit a window to average over where the scans start. At a
	// quarter, small requests split the larger holes so often that cheap
	// frees and coalescing ones came out 48 % to 52 %: the median free sat
	// on the boundary between the two, where 1 % of the mix moves it 15 %.
	for _, w := range e.workers {
		st := &treeState{}
		n := 0
		for c, class := range nearfullClasses {
			n += int(perClass / class / 8 / uint64(e.T))
			st.classEnd[c] = n
		}
		st.slots = make([]treeSlot, n)
		w.state = st
		w.live = 0
	}
	// The planted chunks are live requested bytes too; worker 0 carries them.
	e.workers[0].state.(*treeState).planted = planted
	e.workers[0].live = int64(len(planted)) * plantChunk
	return nil
}

// run is one worker's cycle: fill the slot table one class at a time,
// largest first, then free it all. The released holes re-form exactly when
// everything is freed, so every cycle starts from the same tree. A
// barrier separates the classes: without it a neighbour's small request
// can split the last hole a larger request needs, and the workload would
// not be failure-free. The stop decision is taken at the cycle's closing
// barrier, so only whole cycles are counted.
func (treeNearfull) run(e *env, w *worker, win *window) {
	st := w.state.(*treeState)
	for {
		from := 0
		for c, class := range nearfullClasses {
			for i := from; i < st.classEnd[c]; i++ {
				s := &st.slots[i]
				if s.off, s.ok = w.alloc(class); s.ok {
					w.live += int64(class)
				}
			}
			from = st.classEnd[c]
			win.bar.wait(&st.sense, nil)
		}
		w.hiLive.add(w.live)
		from = 0
		for c, class := range nearfullClasses {
			for i := from; i < st.classEnd[c]; i++ {
				if s := &st.slots[i]; s.ok {
					w.free(s.off)
					w.live -= int64(class)
					s.ok = false
				}
			}
			from = st.classEnd[c]
		}
		w.loLive.add(w.live)
		if win.endCycle(&st.sense, nil) {
			return
		}
	}
}

func (treeNearfull) drain(e *env, w *worker) {
	// A window ends with every slot freed; only the planted chunks remain.
	st := w.state.(*treeState)
	alloc.HandleFreeBatch(w.h, st.planted)
	st.planted = nil
	w.live = 0
}

// ---- burst-elastic --------------------------------------------------

const (
	burstInstance = 4 << 20
	burstInitial  = 2
	burstChunk    = 1 << 10
	burstBatch    = 512
	// The sawtooth swings between 85 % and 5 % of the initial span.
	burstPeakChunks   = burstInitial * burstInstance / burstChunk * 85 / 100
	burstTroughChunks = burstInitial * burstInstance / burstChunk * 5 / 100
	burstRampRetries  = 8
)

type burstState struct {
	live  []uint64
	sense uint32
}

type burstElastic struct{}

func (burstElastic) name() string { return "burst-elastic" }
func (burstElastic) why() string {
	return "mapped elastic fleet under an 85 %<->5 % sawtooth of 1 KiB chunks: elastic, router live accounting and commit/decommit do the work"
}
func (burstElastic) spec() stackSpec {
	// Fixed routing packs every worker's chunks onto the lowest instances,
	// so the survivors of a drain sit on instance 0 and the instances
	// grown at the peak empty out and retire at every trough. Round-robin
	// leaves survivors on two instances; which of them the manager then
	// half-drains depends on timing, and runs split into two regimes.
	return stackSpec{total: burstInstance, minSize: 64, maxSize: 64 << 10,
		instances: burstInitial, mapped: true, fixedRouting: true,
		elastic: &nbbs.ElasticConfig{MinInstances: 1, MaxInstances: 8}}
}

func (burstElastic) budgets() (uint64, uint64) { return 8, 8 }
func (burstElastic) latencyEvery() int         { return 31 }

func (burstElastic) init(e *env) error {
	for _, w := range e.workers {
		w.state = &burstState{live: make([]uint64, 0, burstPeakChunks)}
	}
	return nil
}

// sample records committed bytes per live requested byte; called by the
// barrier's last arriver, so every worker is parked.
func (burstElastic) sample(e *env, win *window, into *[]float64) {
	var live int64
	for _, w := range e.workers {
		live += w.live
	}
	c := e.committed()
	win.committed = append(win.committed, c)
	*into = append(*into, float64(c)/float64(live))
}

// run is one worker's sawtooth. Workers meet at a barrier after the peak
// hold and after the trough hold, so "peak" and "trough" name one state
// of the whole fleet and only whole cycles are counted; the stop decision
// is taken at the trough barrier, for everyone at once.
func (b burstElastic) run(e *env, w *worker, win *window) {
	s := w.state.(*burstState)
	h := w.h
	// A lone worker swings the whole amplitude, or the fleet never
	// crosses a watermark.
	peak := burstPeakChunks / win.active
	trough := burstTroughChunks / win.active
	pollEvery := peak / 32
	poll := func() { w.poll(w) }
	churn := func(rounds int) {
		for i := 0; i < rounds; i++ {
			if n := len(s.live); n > 0 {
				w.free(s.live[n-1])
				s.live = s.live[:n-1]
				w.live -= burstChunk
			}
			if off, ok := w.alloc(burstChunk); ok {
				s.live = append(s.live, off)
				w.live += burstChunk
			}
			if i%pollEvery == 0 {
				poll()
			}
		}
	}
	for {
		// Ramp to the peak in bulk-contract steps. A short batch means
		// the fleet is saturated: two polls satisfy the grow hysteresis,
		// then the remainder is asked for again.
		for retries := 0; len(s.live) < peak; {
			n := min(peak-len(s.live), burstBatch)
			got := alloc.HandleAllocBatch(h, burstChunk, n)
			s.live = append(s.live, got...)
			w.allocs += uint64(len(got))
			w.live += int64(len(got)) * burstChunk
			poll()
			if len(got) < n {
				if retries++; retries > burstRampRetries {
					w.fails += uint64(peak - len(s.live))
					break
				}
				poll()
			}
		}
		poll()
		churn(peak / 2)
		poll()
		win.bar.wait(&s.sense, func() { b.sample(e, win, &win.hiRatios) })
		// Drain newest-first, so the survivors are the oldest chunks —
		// the ones on the workers' preferred instances — and the grown
		// instances empty out and can retire.
		for len(s.live) > trough {
			n := min(len(s.live)-trough, burstBatch)
			alloc.HandleFreeBatch(h, s.live[len(s.live)-n:])
			s.live = s.live[:len(s.live)-n]
			w.frees += uint64(n)
			w.live -= int64(n) * burstChunk
		}
		poll()
		churn(peak / 8)
		poll()
		if win.endCycle(&s.sense, func() { b.sample(e, win, &win.loRatios) }) {
			return
		}
	}
}

func (burstElastic) drain(e *env, w *worker) {
	s := w.state.(*burstState)
	alloc.HandleFreeBatch(w.h, s.live)
	s.live = s.live[:0]
	w.live = 0
	w.poll(w)
}
