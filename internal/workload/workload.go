// Package workload implements the benchmark drivers: the four of the
// paper's evaluation (§IV) plus a remote-free producer/consumer driver:
//
//   - Linux Scalability [22]: every thread runs a tight alloc/free
//     ping-pong of one fixed size.
//   - Thread Test [17] (from the Hoard paper): every thread repeatedly
//     allocates a batch of chunks and then frees the whole batch.
//   - Larson [23]: a simulated server where chunks are handed off through
//     shared slots, so memory allocated by one thread is routinely freed
//     by another; measured as throughput over a fixed time window.
//   - Constant Occupancy (the paper's own): every thread builds a
//     mixed-size pool (more chunks at smaller sizes), then repeatedly
//     frees a random pool entry and re-allocates the same size, keeping
//     the buddy occupancy factor constant.
//   - Remote Free (this repository's): a producer/consumer hand-off
//     where every release is performed by a thread that did not allocate
//     the chunk — the pure cross-thread pattern that Larson samples,
//     isolated to exercise front-end spill/depot behaviour.
//   - Frag (this repository's): an alloc/free ping-pong over an instance
//     pre-fragmented with a checkerboard of long-lived chunks, so every
//     level scan walks long occupied runs before finding a hole — the
//     pattern that stresses the packed status tree's SWAR scan.
//   - Burst (this repository's): a sawtooth live-set — every thread ramps
//     its holdings to a peak above the elastic high watermark, holds,
//     drains to a trough below the low watermark, holds, and repeats —
//     the diurnal/bursty pattern an elastic capacity manager exists for.
//     When the allocator stack contains one, the driver polls it at phase
//     boundaries and during the holds, so instances grow at peak and
//     drain/retire at trough; on fixed stacks it is a pure sawtooth.
//   - Burst Straggler (this repository's): the Burst sawtooth with one
//     long-lived chunk pinned per worker across the drains, the pattern
//     that stalls a draining slot forever unless the elastic manager's
//     migration step moves the straggler off it.
//   - Mixed (this repository's): each thread churns a fixed working set
//     with log-uniform request sizes — an octave exponent drawn
//     uniformly, then a size drawn uniformly within the octave — so
//     small, poorly power-of-two-fitting requests dominate the stream
//     the way they dominate real allocator traffic. The size-class slab
//     layer's showcase.
//
// Every driver takes a prebuilt allocator instance and a Config whose
// operation counts follow the paper (20M/T for Linux Scalability and
// Constant Occupancy, 10k/T allocations x 200 rounds for Thread Test, a
// 10-second window for Larson) scaled by a configurable factor so the
// full grid also runs in CI time.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
	"repro/internal/elastic"
)

// Config parameterizes a single benchmark run.
type Config struct {
	Threads int    // worker goroutines hammering the one instance
	Size    uint64 // request size in bytes (Constant Occupancy: minimum size)
	// Scale multiplies the paper's iteration counts; 1.0 reproduces the
	// paper's volumes, smaller values proportionally shrink every
	// driver's work (and the Larson window).
	Scale float64
	// Seed makes runs reproducible; workers derive private streams.
	Seed int64
}

func (c Config) scaled(n uint64) uint64 {
	s := c.Scale
	if s <= 0 {
		s = 1
	}
	v := uint64(float64(n) * s)
	if v == 0 {
		v = 1
	}
	return v
}

// Result is the outcome of one driver execution.
type Result struct {
	Workload  string
	Allocator string
	Threads   int
	Size      uint64
	Elapsed   time.Duration
	Ops       uint64 // completed allocations + frees
	Fails     uint64 // allocation attempts the instance could not serve
}

// Throughput returns completed operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Func is a benchmark driver.
type Func func(a alloc.Allocator, cfg Config) Result

// Drivers enumerates the benchmarks by their evaluation names: the
// paper's four plus the remote-free producer/consumer driver that
// isolates the cross-thread release path.
var Drivers = map[string]Func{
	"linux-scalability":  LinuxScalability,
	"thread-test":        ThreadTest,
	"larson":             Larson,
	"constant-occupancy": ConstantOccupancy,
	"remote-free":        RemoteFree,
	"frag":               Frag,
	"burst":              Burst,
	"burst-straggler":    BurstStraggler,
	"mixed":              Mixed,
}

// Names returns the driver names in sorted order — the canonical list
// for command-line help and validation messages.
func Names() []string {
	out := make([]string, 0, len(Drivers))
	for name := range Drivers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// run spawns cfg.Threads workers, waits for all to finish, and accounts
// elapsed wall time and completed operations.
func run(name string, a alloc.Allocator, cfg Config, worker func(id int, h alloc.Handle)) Result {
	var wg sync.WaitGroup
	handles := make([]alloc.Handle, cfg.Threads)
	for i := range handles {
		handles[i] = a.NewHandle()
	}
	start := time.Now()
	for i := 0; i < cfg.Threads; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(i, handles[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ops, fails uint64
	for _, h := range handles {
		s := h.Stats()
		ops += s.Allocs + s.Frees
		fails += s.AllocFails
	}
	return Result{
		Workload:  name,
		Allocator: a.Name(),
		Threads:   cfg.Threads,
		Size:      cfg.Size,
		Elapsed:   elapsed,
		Ops:       ops,
		Fails:     fails,
	}
}

// LinuxScalability: each thread performs 20M/T iterations of
// {alloc(size); free} (paper: "threads continuously execute an
// allocation/release pattern, with fixed size").
func LinuxScalability(a alloc.Allocator, cfg Config) Result {
	iters := cfg.scaled(20_000_000) / uint64(cfg.Threads)
	return run("linux-scalability", a, cfg, func(id int, h alloc.Handle) {
		for i := uint64(0); i < iters; i++ {
			if off, ok := h.Alloc(cfg.Size); ok {
				h.Free(off)
			}
		}
	})
}

// ThreadTest: each thread performs 10k/T allocations of the given size,
// then releases all of them, repeating the pattern for 200 rounds
// (paper's citation of the Hoard thread test).
func ThreadTest(a alloc.Allocator, cfg Config) Result {
	batch := cfg.scaled(10_000) / uint64(cfg.Threads)
	if batch == 0 {
		batch = 1
	}
	const rounds = 200
	return run("thread-test", a, cfg, func(id int, h alloc.Handle) {
		live := make([]uint64, 0, batch)
		for r := 0; r < rounds; r++ {
			live = live[:0]
			for i := uint64(0); i < batch; i++ {
				if off, ok := h.Alloc(cfg.Size); ok {
					live = append(live, off)
				}
			}
			for _, off := range live {
				h.Free(off)
			}
		}
	})
}

// larsonSlots is the size of the shared hand-off table: enough slots that
// slot collisions are not the bottleneck, few enough that chunks routinely
// migrate between threads.
const larsonSlots = 4096

// Larson: a Web-server simulation. A shared slot table holds live chunks;
// each worker repeatedly allocates a replacement for a random slot and
// frees whatever chunk it displaced — routinely one allocated by another
// thread. Runs for a fixed window (10s at Scale 1) and reports throughput.
func Larson(a alloc.Allocator, cfg Config) Result {
	slots := make([]atomic.Uint64, larsonSlots) // 0 = empty, else offset+1
	window := time.Duration(float64(10*time.Second) * normScale(cfg.Scale))
	var deadline atomic.Bool
	timer := time.AfterFunc(window, func() { deadline.Store(true) })
	defer timer.Stop()

	res := run("larson", a, cfg, func(id int, h alloc.Handle) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
		// Check the deadline after each batch, not before: every worker
		// runs at least one, so a window that expires before a loaded
		// machine even schedules the workers still yields operations.
		for {
			// Batch a few operations per deadline check to keep the
			// atomic load off the critical path.
			for k := 0; k < 64; k++ {
				slot := &slots[rng.Intn(larsonSlots)]
				var repl uint64
				if off, ok := h.Alloc(cfg.Size); ok {
					repl = off + 1
				}
				if old := slot.Swap(repl); old != 0 {
					h.Free(old - 1)
				}
			}
			if deadline.Load() {
				break
			}
		}
	})
	// Drain the table so the instance can be reused or inspected; use a
	// real handle so the frees are visible in the aggregated statistics.
	drain := a.NewHandle()
	for i := range slots {
		if v := slots[i].Swap(0); v != 0 {
			drain.Free(v - 1)
		}
	}
	res.Elapsed = window // throughput is defined over the window
	return res
}

// remoteFreeQueueCap bounds the in-flight chunks per hand-off queue:
// deep enough that producers rarely stall, shallow enough that the
// working set stays bounded.
const remoteFreeQueueCap = 1024

// RemoteFree: a producer/consumer hand-off. Half the threads allocate
// and push offsets through a shared queue; the other half pop and free
// them, so every single release is remote — the pure form of the
// cross-thread pattern Larson only samples. This is the front-end's
// worst case: consumer magazines fill with chunks the consumer never
// re-allocates, so a chunk-at-a-time front-end pays a back-end round
// trip per spilled chunk, while a depot-backed one hands whole magazines
// across in O(1). With one thread the driver degenerates to a local
// alloc/free ping-pong through the queue.
func RemoteFree(a alloc.Allocator, cfg Config) Result {
	producers := cfg.Threads / 2
	if producers == 0 {
		producers = 1
	}
	queue := make(chan uint64, remoteFreeQueueCap)
	iters := cfg.scaled(10_000_000) / uint64(producers)
	var done sync.WaitGroup
	done.Add(producers)
	go func() {
		done.Wait()
		close(queue)
	}()
	return run("remote-free", a, cfg, func(id int, h alloc.Handle) {
		if id < producers {
			for i := uint64(0); i < iters; i++ {
				if off, ok := h.Alloc(cfg.Size); ok {
					if cfg.Threads == 1 {
						// Single-thread degenerate mode: drain inline so the
						// bounded queue cannot deadlock the lone worker.
						select {
						case queue <- off:
						default:
							h.Free(off)
						}
					} else {
						queue <- off
					}
				}
			}
			done.Done()
			if id == 0 && cfg.Threads == 1 {
				for off := range queue {
					h.Free(off)
				}
			}
			return
		}
		for off := range queue {
			h.Free(off)
		}
	})
}

// fragRunLen is the length of the occupied runs of the frag driver's
// checkerboard: between two free holes sit fragRunLen long-lived chunks,
// so a level scan starting from a scattered point walks fragRunLen/2
// occupied statuses on average before finding a hole.
const fragRunLen = 15

// fragPlantBatch is the bulk-allocation unit of the frag planter. The
// checkerboard is planted and torn down through the allocator-level
// bulk-transfer contract: the batched level scan keeps its rover, so
// filling the whole instance stays linear, and on composed stacks the
// allocator's batch forwards straight to the back-end instead of
// amplifying through magazine refills (a chunk-at-a-time fill of a
// nearly-exhausted heap through a batch-refilling front-end is
// quadratic in the heap size).
const fragPlantBatch = 4096

// Frag: the fragmentation-resilience driver. Before timing, a planter
// handle fills the instance with cfg.Size chunks and then frees every
// (fragRunLen+1)-th one, leaving a checkerboard of long-lived occupied
// runs separated by isolated holes. The timed phase is the Linux
// Scalability ping-pong over that landscape: every allocation's level
// scan must traverse an occupied run to reach a hole, which is exactly
// the memory-bandwidth-bound path the word-packed status layout targets
// (eight node statuses per atomic load instead of one). The planted
// chunks are released after the timed window so the instance drains.
func Frag(a alloc.Allocator, cfg Config) Result {
	var planted []uint64
	for {
		batch := alloc.AllocBatchOf(a, cfg.Size, fragPlantBatch)
		planted = append(planted, batch...)
		if len(batch) < fragPlantBatch {
			// A short batch means the scan could not serve the remainder:
			// the instance is as full as it gets.
			break
		}
	}
	keep := planted[:0]
	holes := make([]uint64, 0, len(planted)/(fragRunLen+1)+1)
	for i, off := range planted {
		if i%(fragRunLen+1) == 0 {
			holes = append(holes, off)
		} else {
			keep = append(keep, off)
		}
	}
	alloc.FreeBatchOf(a, holes)
	iters := cfg.scaled(10_000_000) / uint64(cfg.Threads)
	res := run("frag", a, cfg, func(id int, h alloc.Handle) {
		for i := uint64(0); i < iters; i++ {
			if off, ok := h.Alloc(cfg.Size); ok {
				h.Free(off)
			}
		}
	})
	alloc.FreeBatchOf(a, keep)
	return res
}

// Burst sawtooth shape, as fractions of the initial offset span: the peak
// sits above the elastic manager's default high watermark (so held peaks
// demand growth) and the trough far below the low watermark (so held
// troughs demand retirement). Ramp and drain move memory through the
// bulk-transfer contract in burstBatch-chunk steps: a deep fill through
// single allocations re-probes the collectively delivered run on every
// call (the quadratic pattern the PR 2 batch rover fixed — the frag
// planter moved to bulk fills for the same reason), while the batched
// level scan advances past everything it walked.
const (
	burstPeakNum, burstPeakDen = 17, 20 // 85% of the initial span
	burstTroughDiv             = 16     // trough = peak/16 (~5.3%)
	burstBatch                 = 512    // bulk-contract step of ramp/drain
)

// Burst: the elastic-capacity driver. Every thread cycles its private
// live set through a sawtooth — ramp to peak, hold (churn at constant
// occupancy), drain to trough, hold — so the stack-wide footprint swings
// between ~85% and ~5% of the initial capacity. At phase boundaries and
// periodically during the holds each worker polls the stack's capacity
// manager (when it has one): held peaks satisfy the grow hysteresis,
// held troughs the drain hysteresis, so an elastic stack expands at peak
// and retires instances at trough within each cycle. The drain phase
// releases newest-first, so trough survivors are the oldest chunks — the
// ones packed on the workers' preferred instances — which leaves grown
// instances empty and actually retirable. A failed ramp allocation polls
// and retries once (growth may be what it is waiting for) before moving
// on.
func Burst(a alloc.Allocator, cfg Config) Result {
	return burstDriver("burst", a, cfg, nil)
}

// BurstStraggler: the Burst sawtooth with one long-lived chunk per
// worker. Each thread allocates a single chunk during its first peak and
// holds it across every subsequent drain, so trough phases leave exactly
// Threads stragglers scattered over the fleet — a slot hosting one can
// only retire once its owner lets go. Without migration that is never
// (the stall the regression test pins); with migration enabled the
// manager copies the straggler onto an active slot and retirement
// completes in bounded polls. The driver registers an OnMigrate hook
// that rewrites the held offsets — the ownership contract of the
// migration step — and frees the stragglers at their final addresses
// only after every worker has joined.
//
// Against a migration-ENABLED manager, run this driver with
// Config.Threads = 1: the hook rewrites only the parked stragglers, so
// a migrating Poll must never race a concurrent worker freeing its
// transient sawtooth chunks off the same draining slot (the quiescence
// contract of elastic migration). A single worker serializes its polls
// and frees, and its trough-held chunks pin the preferred slot's byte
// count above the straggler slot's, keeping them off the drain victim.
func BurstStraggler(a alloc.Allocator, cfg Config) Result {
	stragglers := make([]atomic.Uint64, cfg.Threads) // 0 = none, else offset+1
	if mgr := elastic.Find(a); mgr != nil {
		mgr.OnMigrate(func(oldOff, newOff, _ uint64) {
			for i := range stragglers {
				if stragglers[i].CompareAndSwap(oldOff+1, newOff+1) {
					return
				}
			}
		})
	}
	res := burstDriver("burst-straggler", a, cfg, func(id int, h alloc.Handle) {
		if stragglers[id].Load() == 0 {
			if off, ok := h.Alloc(cfg.Size); ok {
				stragglers[id].Store(off + 1)
			}
		}
	})
	// Workers have joined and no Poll is in flight, so the (possibly
	// migrated) addresses are stable; free through a real handle so the
	// aggregated statistics stay balanced.
	drain := a.NewHandle()
	for i := range stragglers {
		if v := stragglers[i].Swap(0); v != 0 {
			drain.Free(v - 1)
		}
	}
	if mgr := elastic.Find(a); mgr != nil {
		mgr.Poll()
	}
	// The straggler frees and the poll above may have retired instances,
	// and an elastic stack's display name carries its live instance
	// count — re-stamp the label so it names the stack as it now stands.
	res.Allocator = a.Name()
	return res
}

// burstDriver is the shared sawtooth body of Burst and BurstStraggler;
// atPeak, when non-nil, runs once per worker per cycle at the top of the
// ramp.
func burstDriver(name string, a alloc.Allocator, cfg Config, atPeak func(id int, h alloc.Handle)) Result {
	mgr := elastic.Find(a)
	geo := a.Geometry()
	reserved := geo.SizeOfLevel(geo.LevelForSize(cfg.Size))
	span := alloc.SpanOf(a)
	peak := span * burstPeakNum / burstPeakDen / reserved / uint64(cfg.Threads)
	if peak < 8 {
		peak = 8
	}
	trough := peak / burstTroughDiv
	if trough < 1 {
		trough = 1
	}
	// A cycle costs about (peak-trough) allocs + as many frees + a peak's
	// worth of churn per worker.
	opsPerCycle := 3 * peak
	cycles := cfg.scaled(10_000_000) / uint64(cfg.Threads) / opsPerCycle
	if cycles == 0 {
		cycles = 1
	}
	pollEvery := int(peak / 8)
	if pollEvery == 0 {
		pollEvery = 1
	}
	poll := func() {
		if mgr != nil {
			mgr.Poll()
		}
	}
	return run(name, a, cfg, func(id int, h alloc.Handle) {
		live := make([]uint64, 0, peak)
		churn := func(rounds uint64) {
			for i := uint64(0); i < rounds; i++ {
				if len(live) > 0 {
					h.Free(live[len(live)-1])
					live = live[:len(live)-1]
				}
				if off, ok := h.Alloc(cfg.Size); ok {
					live = append(live, off)
				}
				if i%uint64(pollEvery) == 0 {
					poll()
				}
			}
		}
		for c := uint64(0); c < cycles; c++ {
			// Ramp to peak in bulk-contract steps.
			for uint64(len(live)) < peak {
				n := int(peak) - len(live)
				if n > burstBatch {
					n = burstBatch
				}
				got := alloc.HandleAllocBatch(h, cfg.Size, n)
				live = append(live, got...)
				poll()
				if len(got) < n {
					// The fleet is saturated mid-ramp; the poll above may
					// have published capacity. A second short batch means it
					// did not (cap reached): hold at whatever this is.
					if got = alloc.HandleAllocBatch(h, cfg.Size, n-len(got)); len(got) == 0 {
						break
					}
					live = append(live, got...)
				}
			}
			poll()
			if atPeak != nil {
				atPeak(id, h)
			}
			churn(peak / 2) // hold at peak
			poll()
			// Drain to trough, newest first, in bulk-contract steps.
			for uint64(len(live)) > trough {
				n := len(live) - int(trough)
				if n > burstBatch {
					n = burstBatch
				}
				alloc.HandleFreeBatch(h, live[len(live)-n:])
				live = live[:len(live)-n]
			}
			poll()
			churn(peak / 8) // hold at trough (longer than a hysteresis streak)
			poll()
		}
		alloc.HandleFreeBatch(h, live)
		poll()
	})
}

func normScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// occupancyClasses returns the Constant Occupancy size classes: the paper
// uses sizes from cfg.Size up to 16x cfg.Size, "with larger amount of
// allocations bound to smaller chunk sizes". We use the five power-of-two
// classes with per-class counts inversely proportional to size.
func occupancyClasses(minSize uint64, budget int) []uint64 {
	classes := []uint64{minSize, 2 * minSize, 4 * minSize, 8 * minSize, 16 * minSize}
	var pool []uint64
	for _, s := range classes {
		n := budget * int(classes[0]) / int(s)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			pool = append(pool, s)
		}
	}
	return pool
}

// constOccPoolBudget is the per-thread count of minimum-size chunks the
// initial pool is normalized to.
const constOccPoolBudget = 64

// ConstantOccupancy: each thread pre-allocates its mixed-size pool, then
// runs 20M/T rounds of {free random element; alloc the same size},
// keeping the instance's occupancy factor constant while exercising
// frees and allocations across levels.
func ConstantOccupancy(a alloc.Allocator, cfg Config) Result {
	iters := cfg.scaled(20_000_000) / uint64(cfg.Threads)
	return run("constant-occupancy", a, cfg, func(id int, h alloc.Handle) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*104729))
		sizes := occupancyClasses(cfg.Size, constOccPoolBudget)
		type chunk struct {
			off  uint64
			size uint64
			ok   bool
		}
		pool := make([]chunk, len(sizes))
		for i, s := range sizes {
			off, ok := h.Alloc(s)
			pool[i] = chunk{off, s, ok}
		}
		for i := uint64(0); i < iters; i++ {
			c := &pool[rng.Intn(len(pool))]
			if c.ok {
				h.Free(c.off)
			}
			c.off, c.ok = h.Alloc(c.size)
		}
		for _, c := range pool {
			if c.ok {
				h.Free(c.off)
			}
		}
	})
}

// mixedSlots is the per-thread working-set size of the mixed driver.
const mixedSlots = 256

// Mixed: each thread keeps a mixedSlots-entry working set and runs
// 20M/T rounds of {free the slot if occupied; alloc a fresh log-uniform
// size into it}. Sizes draw an octave exponent uniformly from
// [3, log2(cfg.Size)-1] and then a size uniformly within the octave, so
// the stream is dominated by small requests with poor power-of-two fit
// (the sizes a size-class slab serves from runs) while the top octave
// keeps larger chunks in play; cfg.Size bounds the largest request.
// The base iteration count is 5x the fixed-size drivers': mixed ops are
// magazine-hit cheap, so short cells would be dominated by per-rep
// stack construction (run provisioning, magazine fill) instead of the
// steady state the driver exists to compare.
func Mixed(a alloc.Allocator, cfg Config) Result {
	iters := cfg.scaled(100_000_000) / uint64(cfg.Threads)
	maxE := 3
	for uint64(1)<<(maxE+2) <= cfg.Size {
		maxE++
	}
	return run("mixed", a, cfg, func(id int, h alloc.Handle) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*15485863))
		size := func() uint64 {
			lo := uint64(1) << (3 + rng.Intn(maxE-2))
			if s := lo + uint64(rng.Int63n(int64(lo))); s <= cfg.Size {
				return s
			}
			return cfg.Size // degenerate tiny cfg.Size: stay in bounds
		}
		type chunk struct {
			off uint64
			ok  bool
		}
		pool := make([]chunk, mixedSlots)
		for i := uint64(0); i < iters; i++ {
			c := &pool[rng.Intn(len(pool))]
			if c.ok {
				h.Free(c.off)
			}
			c.off, c.ok = h.Alloc(size())
		}
		for _, c := range pool {
			if c.ok {
				h.Free(c.off)
			}
		}
	})
}

// Validate rejects configurations the drivers cannot honour.
func (c Config) Validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("workload: thread count %d must be positive", c.Threads)
	}
	if c.Size == 0 {
		return fmt.Errorf("workload: request size must be positive")
	}
	return nil
}
