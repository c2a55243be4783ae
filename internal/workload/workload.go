// Package workload implements the four benchmark drivers of the paper's
// evaluation (§IV):
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alloc"
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

// Drivers enumerates the paper's four benchmarks by their evaluation
// names, the keys harness sweeps and figures name their workload by.
var Drivers = map[string]Func{
	"linux-scalability":  LinuxScalability,
	"thread-test":        ThreadTest,
	"larson":             Larson,
	"constant-occupancy": ConstantOccupancy,
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
