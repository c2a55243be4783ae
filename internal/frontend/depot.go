package frontend

import "sync"

// Depot is the shared, per-size-class magazine exchange of the front-end
// (the depot layer of cached kernel allocators [3]): handles trade whole
// magazines with it in O(1) — a full magazine in for an empty one when a
// worker's magazine overflows, an empty in for a full one when it runs
// dry — so the cross-thread hand-off cost of a remote-free workload is
// one mutex-protected pointer swap per magCap chunks instead of a
// back-end round trip per chunk. Only when the depot itself is empty
// (refill) or at capacity (drain) does memory move a layer down, and then
// it moves as one batch through the alloc.BatchAllocator contract.
type Depot struct {
	mu sync.Mutex
	// cap bounds the full magazines retained per size class; beyond it an
	// overflowing magazine is drained to the back-end in one batch.
	cap int
	// full[class] holds full magazines; empty holds exhausted magazine
	// slices awaiting reuse (they carry no chunks, only capacity).
	full  [][][]uint64
	empty [][]uint64

	stats DepotStats

	// sink, when non-nil, receives one call per batched back-end crossing
	// (refill, capacity drain, drain-range eviction) for the telemetry
	// flight recorder (a = class index where known, b = chunks moved).
	// Exchange hits stay unpublished — they are the O(1) steady state.
	sink func(event string, a, b uint64)
}

// SetEventSink installs the flight-recorder publish hook for back-end
// crossings. Install before traffic; nil uninstalls.
func (d *Depot) SetEventSink(fn func(event string, a, b uint64)) {
	d.mu.Lock()
	d.sink = fn
	d.mu.Unlock()
}

// emit publishes a crossing event. Called with mu held; nil-safe.
func (d *Depot) emit(event string, a, b uint64) {
	if d.sink != nil {
		d.sink(event, a, b)
	}
}

// DefaultDepotCapacity is the per-class bound of retained full magazines.
const DefaultDepotCapacity = 8

// DepotStats counts depot traffic; quiescent points only.
type DepotStats struct {
	FullPushes     uint64 // full magazines accepted from overflowing handles
	FullPops       uint64 // full magazines handed to running-dry handles
	PopMisses      uint64 // exchanges that found the class empty
	Drains         uint64 // full magazines refused at capacity (drained below)
	DrainedChunks  uint64 // chunks those drains moved to the back-end
	Refills        uint64 // back-end batch refills after a pop miss
	RefilledChunks uint64 // chunks those refills brought up
}

// newDepot builds a depot of DefaultDepotCapacity for the given number
// of size classes.
func newDepot(classes int) *Depot {
	return &Depot{cap: DefaultDepotCapacity, full: make([][][]uint64, classes)}
}

// ExchangeFull trades an exhausted magazine for a full one of the class.
// On a miss the empty slice is kept for a later exchange and the caller
// refills from the back-end instead.
func (d *Depot) ExchangeFull(cls int, empty []uint64) ([]uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	stack := d.full[cls]
	if len(stack) == 0 {
		d.stats.PopMisses++
		return nil, false
	}
	mag := stack[len(stack)-1]
	d.full[cls] = stack[:len(stack)-1]
	d.stats.FullPops++
	if empty != nil {
		d.empty = append(d.empty, empty[:0])
	}
	return mag, true
}

// ExchangeEmpty trades a full magazine for an empty one. When the class
// is at capacity it refuses (ok false) and the caller drains the
// magazine to the back-end in one batch.
func (d *Depot) ExchangeEmpty(cls int, full []uint64) ([]uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.full[cls]) >= d.cap {
		d.stats.Drains++
		d.stats.DrainedChunks += uint64(len(full))
		d.emit("drain", uint64(cls), uint64(len(full)))
		return nil, false
	}
	d.full[cls] = append(d.full[cls], full)
	d.stats.FullPushes++
	var empty []uint64
	if n := len(d.empty); n > 0 {
		empty = d.empty[n-1]
		d.empty = d.empty[:n-1]
	}
	return empty, true
}

// noteRefill records a back-end batch refill performed by a handle after
// a pop miss.
func (d *Depot) noteRefill(chunks int) {
	d.mu.Lock()
	d.stats.Refills++
	d.stats.RefilledChunks += uint64(chunks)
	d.emit("refill", 0, uint64(chunks))
	d.mu.Unlock()
}

// DrainRange removes and returns every retained full magazine holding at
// least one chunk in the global offset window [lo, hi) — the elastic
// shrink path: a draining back-end instance cannot reach zero live chunks
// while the depot parks its memory. Magazines mix chunks from several
// instances (they are filled by frees, which route anywhere), so a
// matching magazine is evicted whole; the caller frees it down and the
// out-of-window chunks simply return to their own instances.
func (d *Depot) DrainRange(lo, hi uint64) [][]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out [][]uint64
	for cls, stack := range d.full {
		kept := stack[:0]
		for _, mag := range stack {
			hit := false
			for _, off := range mag {
				if off >= lo && off < hi {
					hit = true
					break
				}
			}
			if hit {
				out = append(out, mag)
				d.stats.Drains++
				d.stats.DrainedChunks += uint64(len(mag))
				d.emit("drain-range", uint64(cls), uint64(len(mag)))
			} else {
				kept = append(kept, mag)
			}
		}
		d.full[cls] = kept
	}
	return out
}

// DrainAll removes and returns every retained full magazine — the Scrub
// path: depot residency does not survive a quiesce, all depot-held chunks
// go back to the back-end. Quiescent points only.
func (d *Depot) DrainAll() [][]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out [][]uint64
	for cls, stack := range d.full {
		out = append(out, stack...)
		d.full[cls] = nil
	}
	d.empty = nil
	return out
}

// Retained returns the number of chunks currently parked in the depot;
// quiescent points only.
func (d *Depot) Retained() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, stack := range d.full {
		for _, mag := range stack {
			n += len(mag)
		}
	}
	return n
}

// Stats returns the depot counters; quiescent points only.
func (d *Depot) Stats() DepotStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}
