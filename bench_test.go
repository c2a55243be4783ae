// Benchmark harness: one testing.B family per paper figure plus the
// ablations called out in DESIGN.md. Each figure bench reproduces the
// corresponding workload pattern with b.N operations spread over a worker
// grid; `go test -bench Fig08 -benchmem` regenerates the shape of Figure 8
// (per-operation cost by allocator, size and thread count), and so on.
// cmd/nbbsfig renders the same experiments as the paper's tables instead.
package nbbs_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/frontend"
	"repro/internal/multi"
	"repro/internal/stack"

	"repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
)

// benchInstance mirrors the paper's user-space configuration: 8-byte
// allocation units, 16 KB maximum chunks (Figures 8-11).
var benchInstance = alloc.Config{Total: 16 << 20, MinSize: 8, MaxSize: 16 << 10}

// kernelInstance mirrors Figure 12: page-grained units, 4 MB max order.
var kernelInstance = alloc.Config{Total: 256 << 20, MinSize: 4 << 10, MaxSize: 4 << 20}

// benchAllocators is the paper's user-space comparison set.
var benchAllocators = []string{"4lvl-nb", "1lvl-nb", "4lvl-sl", "1lvl-sl", "buddy-sl"}

func benchThreads() []int {
	n := runtime.GOMAXPROCS(0)
	if n <= 1 {
		return []int{1}
	}
	return []int{1, n}
}

// runWorkers spreads b.N operations over the worker goroutines, each
// driving its own handle with the given per-worker body.
func runWorkers(b *testing.B, a alloc.Allocator, threads int, body func(h alloc.Handle, iters int, id int)) {
	b.Helper()
	iters := b.N / threads
	if iters == 0 {
		iters = 1
	}
	handles := make([]alloc.Handle, threads)
	for i := range handles {
		handles[i] = a.NewHandle()
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(handles[w], iters, w)
		}()
	}
	wg.Wait()
	b.StopTimer()
}

func build(b *testing.B, variant string, cfg alloc.Config) alloc.Allocator {
	b.Helper()
	a, err := alloc.Build(variant, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkFig08LinuxScalability: the Linux Scalability pattern — tight
// same-size alloc/free pairs per worker (paper Figure 8; one op = one
// alloc+free pair).
func BenchmarkFig08LinuxScalability(b *testing.B) {
	for _, variant := range benchAllocators {
		for _, size := range []uint64{8, 128, 1024} {
			for _, threads := range benchThreads() {
				b.Run(fmt.Sprintf("%s/bytes=%d/threads=%d", variant, size, threads), func(b *testing.B) {
					a := build(b, variant, benchInstance)
					runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
						for i := 0; i < iters; i++ {
							if off, ok := h.Alloc(size); ok {
								h.Free(off)
							}
						}
					})
				})
			}
		}
	}
}

// BenchmarkFig09ThreadTest: the Thread Test pattern — allocate a batch,
// then free the whole batch (paper Figure 9; one op = one alloc+free pair,
// batched 100 at a time).
func BenchmarkFig09ThreadTest(b *testing.B) {
	const batch = 100
	for _, variant := range benchAllocators {
		for _, size := range []uint64{8, 128, 1024} {
			for _, threads := range benchThreads() {
				b.Run(fmt.Sprintf("%s/bytes=%d/threads=%d", variant, size, threads), func(b *testing.B) {
					a := build(b, variant, benchInstance)
					runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
						live := make([]uint64, 0, batch)
						for done := 0; done < iters; {
							live = live[:0]
							for k := 0; k < batch && done < iters; k++ {
								if off, ok := h.Alloc(size); ok {
									live = append(live, off)
								}
								done++
							}
							for _, off := range live {
								h.Free(off)
							}
						}
					})
				})
			}
		}
	}
}

// BenchmarkFig10Larson: the Larson pattern — replace a random chunk in a
// shared table, freeing what another worker allocated (paper Figure 10;
// one op = one replace).
func BenchmarkFig10Larson(b *testing.B) {
	const slots = 2048
	for _, variant := range benchAllocators {
		for _, size := range []uint64{8, 128, 1024} {
			for _, threads := range benchThreads() {
				b.Run(fmt.Sprintf("%s/bytes=%d/threads=%d", variant, size, threads), func(b *testing.B) {
					a := build(b, variant, benchInstance)
					table := make([]atomic.Uint64, slots)
					runWorkers(b, a, threads, func(h alloc.Handle, iters, id int) {
						rng := rand.New(rand.NewSource(int64(id) + 1))
						for i := 0; i < iters; i++ {
							var repl uint64
							if off, ok := h.Alloc(size); ok {
								repl = off + 1
							}
							if old := table[rng.Intn(slots)].Swap(repl); old != 0 {
								h.Free(old - 1)
							}
						}
					})
					// Drain outside the timed region.
					for i := range table {
						if v := table[i].Swap(0); v != 0 {
							a.Free(v - 1)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig11ConstantOccupancy: the paper's own pattern — a standing
// mixed-size pool per worker, each op frees a random element and
// re-allocates its size (paper Figure 11; one op = one free+alloc pair).
func BenchmarkFig11ConstantOccupancy(b *testing.B) {
	for _, variant := range benchAllocators {
		for _, size := range []uint64{8, 128, 1024} {
			for _, threads := range benchThreads() {
				b.Run(fmt.Sprintf("%s/bytes=%d/threads=%d", variant, size, threads), func(b *testing.B) {
					a := build(b, variant, benchInstance)
					runWorkers(b, a, threads, func(h alloc.Handle, iters, id int) {
						rng := rand.New(rand.NewSource(int64(id) + 1))
						type chunk struct {
							off  uint64
							size uint64
							ok   bool
						}
						// More chunks at smaller sizes, max 16x min size.
						var pool []chunk
						for c := 0; c < 5; c++ {
							s := size << c
							for k := 0; k < 16>>c; k++ {
								off, ok := h.Alloc(s)
								pool = append(pool, chunk{off, s, ok})
							}
						}
						for i := 0; i < iters; i++ {
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
				})
			}
		}
	}
}

// BenchmarkFig12KernelComparison: the kernel-style configuration — 128 KB
// chunks on a page-grained instance, the non-blocking allocators against
// the Linux-style free-list buddy at full parallelism (paper Figure 12).
func BenchmarkFig12KernelComparison(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	const size = 128 << 10
	for _, variant := range []string{"4lvl-nb", "1lvl-nb", "buddy-sl", "linux-buddy"} {
		for _, pattern := range []string{"linux-scalability", "thread-test", "constant-occupancy"} {
			b.Run(fmt.Sprintf("%s/%s/threads=%d", variant, pattern, threads), func(b *testing.B) {
				a := build(b, variant, kernelInstance)
				switch pattern {
				case "linux-scalability":
					runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
						for i := 0; i < iters; i++ {
							if off, ok := h.Alloc(size); ok {
								h.Free(off)
							}
						}
					})
				case "thread-test":
					runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
						live := make([]uint64, 0, 16)
						for done := 0; done < iters; {
							live = live[:0]
							for k := 0; k < 16 && done < iters; k++ {
								if off, ok := h.Alloc(size); ok {
									live = append(live, off)
								}
								done++
							}
							for _, off := range live {
								h.Free(off)
							}
						}
					})
				case "constant-occupancy":
					runWorkers(b, a, threads, func(h alloc.Handle, iters, id int) {
						rng := rand.New(rand.NewSource(int64(id) + 1))
						var pool []uint64
						for k := 0; k < 8; k++ {
							if off, ok := h.Alloc(size); ok {
								pool = append(pool, off)
							}
						}
						for i := 0; i < iters; i++ {
							if len(pool) == 0 {
								break
							}
							k := rng.Intn(len(pool))
							h.Free(pool[k])
							if off, ok := h.Alloc(size); ok {
								pool[k] = off
							} else {
								pool[k] = pool[len(pool)-1]
								pool = pool[:len(pool)-1]
							}
						}
						for _, off := range pool {
							h.Free(off)
						}
					})
				}
			})
		}
	}
}

// BenchmarkAblationRMWCount quantifies §III.D's claim: the 4-level layout
// cuts atomic RMW instructions per operation by ~4x on deep climbs. The
// custom metrics RMW/op and CASfail/op are the point; ns/op is secondary.
// The batch=64 rows run AllocBatch/FreeBatch rounds, where a 4-level bunch
// also reserves up to eight chunks per CAS (rmw_test.go).
func BenchmarkAblationRMWCount(b *testing.B) {
	for _, variant := range []string{"1lvl-nb", "4lvl-nb"} {
		for _, size := range []uint64{8, 1024} {
			for _, batch := range []int{1, 64} {
				b.Run(fmt.Sprintf("%s/bytes=%d/batch=%d", variant, size, batch), func(b *testing.B) {
					a := build(b, variant, benchInstance)
					threads := runtime.GOMAXPROCS(0)
					runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
						for i := 0; i < iters; i++ {
							if batch > 1 {
								alloc.HandleFreeBatch(h, alloc.HandleAllocBatch(h, size, batch))
							} else if off, ok := h.Alloc(size); ok {
								h.Free(off)
							}
						}
					})
					s := a.Stats()
					if ops := s.OpsTotal(); ops > 0 {
						b.ReportMetric(float64(s.RMW)/float64(ops), "RMW/op")
						b.ReportMetric(float64(s.CASFail)/float64(ops), "CASfail/op")
					}
				})
			}
		}
	}
}

// BenchmarkAblationScatter measures the §III.B scattered scan start: with
// it, concurrent same-level allocations spread over the level; without it,
// they all fight for the first free node.
func BenchmarkAblationScatter(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, scattered := range []bool{true, false} {
		name := "scattered"
		if !scattered {
			name = "fixed-start"
		}
		for _, leaf := range []struct {
			name string
			new  func(total, minSize, maxSize uint64, opts ...bunch.Option) (*bunch.Allocator, error)
		}{{"1lvl-nb", bunch.New1Lvl}, {"4lvl-nb", bunch.New4Lvl}} {
			b.Run(fmt.Sprintf("%s/%s/threads=%d", leaf.name, name, threads), func(b *testing.B) {
				var opts []bunch.Option
				if !scattered {
					opts = append(opts, bunch.WithoutScatter())
				}
				a, err := leaf.new(benchInstance.Total, benchInstance.MinSize, benchInstance.MaxSize, opts...)
				if err != nil {
					b.Fatal(err)
				}
				runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
					for i := 0; i < iters; i++ {
						if off, ok := h.Alloc(64); ok {
							h.Free(off)
						}
					}
				})
			})
		}
	}
}

// BenchmarkAblationLockKind compares spin-lock flavors under the blocking
// baseline, checking the baselines are not strawmen: the paper's gap must
// hold against the best lock, not just the worst.
func BenchmarkAblationLockKind(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, kind := range []string{"tas", "ttas", "ticket"} {
		b.Run(fmt.Sprintf("1lvl-sl/%s/threads=%d", kind, threads), func(b *testing.B) {
			cfg := benchInstance
			cfg.LockKind = kind
			a := build(b, "1lvl-sl", cfg)
			runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
				for i := 0; i < iters; i++ {
					if off, ok := h.Alloc(64); ok {
						h.Free(off)
					}
				}
			})
		})
	}
}

// BenchmarkAblationFrontend measures the future-work composition: the
// Larson pattern straight on the back-end versus through per-worker
// caching magazines.
func BenchmarkAblationFrontend(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	const slots = 2048
	run := func(b *testing.B, mkHandle func() alloc.Handle, a alloc.Allocator) {
		table := make([]atomic.Uint64, slots)
		iters := b.N / threads
		if iters == 0 {
			iters = 1
		}
		handles := make([]alloc.Handle, threads)
		for i := range handles {
			handles[i] = mkHandle()
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := handles[w]
				rng := rand.New(rand.NewSource(int64(w) + 1))
				for i := 0; i < iters; i++ {
					var repl uint64
					if off, ok := h.Alloc(128); ok {
						repl = off + 1
					}
					if old := table[rng.Intn(slots)].Swap(repl); old != 0 {
						h.Free(old - 1)
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		for w := range handles {
			if fh, ok := handles[w].(*frontend.Handle); ok {
				fh.Flush()
			}
		}
		for i := range table {
			if v := table[i].Swap(0); v != 0 {
				a.Free(v - 1)
			}
		}
	}
	b.Run(fmt.Sprintf("direct/threads=%d", threads), func(b *testing.B) {
		a := build(b, "4lvl-nb", benchInstance)
		run(b, a.NewHandle, a)
	})
	b.Run(fmt.Sprintf("depot/threads=%d", threads), func(b *testing.B) {
		a := build(b, "4lvl-nb", benchInstance)
		fe, err := frontend.New(a, 32)
		if err != nil {
			b.Fatal(err)
		}
		run(b, fe.NewHandle, a)
	})
}

// BenchmarkStackDepotMulti measures the composed layer stacks on the
// Larson pattern (cross-worker frees, the workload that exercises both
// the magazines and the router): the bare back-end against the
// multi-instance router, the caching front-end over each, and the slab
// on top of that — the production composition the paper's conclusions
// call for. The two front-end rows without the slab have no registry
// label; they are built from their stack.Spec, the 4-instance one over
// quarter-size instances as the multi4 labels split the span.
func BenchmarkStackDepotMulti(b *testing.B) {
	const slots = 2048
	label := func(variant string) func(*testing.B) alloc.Allocator {
		return func(b *testing.B) alloc.Allocator { return build(b, variant, benchInstance) }
	}
	spec := func(s stack.Spec) func(*testing.B) alloc.Allocator {
		return func(b *testing.B) alloc.Allocator {
			st, err := stack.Build(s)
			if err != nil {
				b.Fatal(err)
			}
			return st.Top
		}
	}
	quarter := benchInstance
	quarter.Total /= 4
	stacks := []struct {
		name string
		make func(*testing.B) alloc.Allocator
	}{
		{"4lvl-nb", label("4lvl-nb")},
		{"multi4+4lvl-nb", label("multi4+4lvl-nb")},
		{"depot+4lvl-nb", spec(stack.Spec{Variant: "4lvl-nb", Per: benchInstance, Depot: true})},
		{"depot+multi4+4lvl-nb", spec(stack.Spec{Variant: "4lvl-nb", Per: quarter, Instances: 4, Depot: true})},
		{"slab+depot+multi4+4lvl-nb", label("slab+depot+multi4+4lvl-nb")},
	}
	for _, s := range stacks {
		for _, threads := range benchThreads() {
			b.Run(fmt.Sprintf("%s/threads=%d", s.name, threads), func(b *testing.B) {
				a := s.make(b)
				table := make([]atomic.Uint64, slots)
				runWorkers(b, a, threads, func(h alloc.Handle, iters, id int) {
					rng := rand.New(rand.NewSource(int64(id) + 1))
					for i := 0; i < iters; i++ {
						var repl uint64
						if off, ok := h.Alloc(128); ok {
							repl = off + 1
						}
						if old := table[rng.Intn(slots)].Swap(repl); old != 0 {
							h.Free(old - 1)
						}
					}
				})
				for i := range table {
					if v := table[i].Swap(0); v != 0 {
						a.Free(v - 1)
					}
				}
				if fe, ok := a.(*frontend.Allocator); ok {
					cache := fe.CacheTotals()
					if ops := cache.Hits + cache.Misses; ops > 0 {
						b.ReportMetric(float64(cache.Hits)/float64(ops)*100, "maghit%")
					}
				}
			})
		}
	}
}

// BenchmarkFreeBatch measures the drains that reach the leaves'
// FreeBatch: a magazine of 32 contiguous 4 KiB chunks on the shipping
// instance (16 MiB of 8 B units), as a full front-end magazine drains
// them, and 512 1 KiB chunks on a 4 MiB instance of 64 B units, as
// burst-elastic drains them.
// Each runs on the bare 4lvl-nb leaf and through a 4-instance router of
// such leaves. An iteration allocates the drain with AllocBatch and
// releases it with FreeBatch; ns/chunk and RMW/chunk count the release
// alone.
func BenchmarkFreeBatch(b *testing.B) {
	burst := alloc.Config{Total: 4 << 20, MinSize: 64, MaxSize: 64 << 10}
	for _, d := range []struct {
		name string
		cfg  alloc.Config
		size uint64
		n    int
	}{
		{"magazine", benchInstance, 4 << 10, 32},
		{"burst", burst, 1 << 10, 512},
	} {
		for _, routed := range []bool{false, true} {
			name := d.name + "/4lvl-nb"
			if routed {
				name = d.name + "/multi4+4lvl-nb"
			}
			b.Run(name, func(b *testing.B) {
				var a alloc.Allocator = build(b, "4lvl-nb", d.cfg)
				if routed {
					m, err := multi.New("4lvl-nb", 4, d.cfg, multi.RoundRobin)
					if err != nil {
						b.Fatal(err)
					}
					a = m
				}
				h := a.NewHandle()
				var free time.Duration
				var rmw uint64
				for i := 0; i < b.N; i++ {
					offs := alloc.HandleAllocBatch(h, d.size, d.n)
					if len(offs) != d.n {
						b.Fatalf("AllocBatch(%d, %d) = %d chunks on an empty instance", d.size, d.n, len(offs))
					}
					before := a.Stats().RMW
					t0 := time.Now()
					alloc.HandleFreeBatch(h, offs)
					free += time.Since(t0)
					rmw += a.Stats().RMW - before
				}
				chunks := float64(b.N * d.n)
				b.ReportMetric(float64(free.Nanoseconds())/chunks, "ns/chunk")
				b.ReportMetric(float64(rmw)/chunks, "RMW/chunk")
			})
		}
	}
}

// BenchmarkRouterPreferredFull measures the router's fallback when the
// preferred instance is full: a Fixed 2-instance router whose instance 0
// is planted full of the benchmarked size, then single-op alloc/free
// churn that instance 1 serves. Every Alloc prefers instance 0, so the
// cost per op is what asking (or skipping) a full instance adds to one
// served allocation; the failure hint (DESIGN.md, "The failure hint")
// turns the failing level scan into one load of the slot's hint word.
func BenchmarkRouterPreferredFull(b *testing.B) {
	cfg := alloc.Config{Total: 4 << 20, MinSize: 64, MaxSize: 64 << 10}
	const size = 1 << 10
	m, err := multi.New("4lvl-nb", 2, cfg, multi.Fixed)
	if err != nil {
		b.Fatal(err)
	}
	planter := m.Instance(0).NewHandle()
	var planted []uint64
	for {
		off, ok := planter.Alloc(size)
		if !ok {
			break
		}
		planted = append(planted, off)
	}
	h := m.NewHandle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, ok := h.Alloc(size)
		if !ok || m.InstanceOf(off) != 1 {
			b.Fatalf("alloc = (%v, instance %d), want instance 1", ok, m.InstanceOf(off))
		}
		h.Free(off)
	}
	b.StopTimer()
	for _, off := range planted {
		planter.Free(off)
	}
}

// BenchmarkAblationFragmentation tests the paper's resilience claim (§I):
// the non-blocking allocator should not degrade "independently of the
// current level of fragmentation of the handled memory blocks", whereas
// lock-based scans serialize behind longer critical sections as the tree
// fills up. The instance is pre-fragmented to the given occupancy with
// scattered min-size chunks before the timed churn.
func BenchmarkAblationFragmentation(b *testing.B) {
	threads := runtime.GOMAXPROCS(0)
	for _, variant := range []string{"4lvl-nb", "1lvl-nb", "1lvl-sl", "buddy-sl"} {
		for _, occupancy := range []int{0, 50, 90} {
			b.Run(fmt.Sprintf("%s/occupancy=%d%%/threads=%d", variant, occupancy, threads), func(b *testing.B) {
				cfg := alloc.Config{Total: 1 << 22, MinSize: 8, MaxSize: 16 << 10}
				a := build(b, variant, cfg)
				// Pre-fragment: fill `occupancy`% of the allocation units
				// with 64-byte chunks, then free every other one so the
				// remaining free space is maximally scattered.
				pre := a.NewHandle()
				units := int(cfg.Total / 64)
				var planted []uint64
				for i := 0; i < units*occupancy/100; i++ {
					if off, ok := pre.Alloc(64); ok {
						planted = append(planted, off)
					}
				}
				for i := 0; i < len(planted); i += 2 {
					pre.Free(planted[i])
				}
				runWorkers(b, a, threads, func(h alloc.Handle, iters, _ int) {
					for i := 0; i < iters; i++ {
						if off, ok := h.Alloc(64); ok {
							h.Free(off)
						}
					}
				})
			})
		}
	}
}

// BenchmarkLevelScan isolates the NBALLOC level-scan cost the packed
// status words target, away from the full drivers: a single worker
// allocates min-class chunks over pre-planted landscapes and a second
// handle frees them, so the allocating handle's rover is never rewound
// and every allocation walks on to the next hole. "empty" is the best
// case (the first probed word has a free lane); "checkerboard" plants
// long-lived chunks with one hole per 16, so an allocation walks ~15
// occupied statuses; "near-full" leaves one hole per 64, walking ~63. Those
// three ping-pong one chunk; "near-full-run" takes 256 chunks in a row
// before freeing them (untimed), the run a worker filling a cache makes.
// The occupied-run traversal is where the SWAR pass replaces one atomic
// load per node with one per eight nodes.
//
// "full" takes the whole target level first, so every timed Alloc is a
// failing scan of the level: the cost of words with no candidate, which
// the whole-word walker (status.NextRun) serves. On a 4 MiB instance with
// 64 B units the 4lvl-nb sizes 1 KiB, 2 KiB, 256 B and 512 B put one,
// two, four and eight lanes under each node (shifts 0-3); 1lvl-nb, which
// materializes every level, scans at one lane per node.
func BenchmarkLevelScan(b *testing.B) {
	cfg := alloc.Config{Total: 1 << 22, MinSize: 8, MaxSize: 16 << 10}
	const size = 64
	landscapes := []struct {
		name      string
		holeEvery int // plant chunks, then free every holeEvery-th (0 = plant nothing)
		run       int // chunks taken before they are freed
	}{
		{"empty", 0, 1},
		{"checkerboard", 16, 1},
		{"near-full", 64, 1},
		{"near-full-run", 64, 256},
	}
	for _, land := range landscapes {
		for _, variant := range []string{"1lvl-nb", "4lvl-nb"} {
			b.Run(fmt.Sprintf("%s/%s", land.name, variant), func(b *testing.B) {
				a := build(b, variant, cfg)
				planter := a.NewHandle()
				var keep []uint64
				if land.holeEvery > 0 {
					var planted []uint64
					for {
						off, ok := planter.Alloc(size)
						if !ok {
							break
						}
						planted = append(planted, off)
					}
					for i, off := range planted {
						if i%land.holeEvery == 0 {
							planter.Free(off)
						} else {
							keep = append(keep, off)
						}
					}
				}
				h, freer := a.NewHandle(), a.NewHandle()
				taken := make([]uint64, 0, land.run)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if off, ok := h.Alloc(size); ok {
						taken = append(taken, off)
					}
					if len(taken) < land.run && i+1 < b.N {
						continue
					}
					if land.run > 1 {
						b.StopTimer()
					}
					for _, off := range taken {
						freer.Free(off)
					}
					taken = taken[:0]
					if land.run > 1 {
						b.StartTimer()
					}
				}
				b.StopTimer()
				for _, off := range keep {
					planter.Free(off)
				}
			})
		}
	}
	full := alloc.Config{Total: 1 << 22, MinSize: 64, MaxSize: 16 << 10}
	for _, c := range []struct {
		variant string
		size    uint64
	}{
		{"4lvl-nb", 1024},
		{"4lvl-nb", 2048},
		{"4lvl-nb", 256},
		{"4lvl-nb", 512},
		{"1lvl-nb", 1024},
	} {
		b.Run(fmt.Sprintf("full/%s/%dB", c.variant, c.size), func(b *testing.B) {
			a := build(b, c.variant, full)
			h := a.NewHandle()
			var planted []uint64
			for {
				off, ok := h.Alloc(c.size)
				if !ok {
					break
				}
				planted = append(planted, off)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := h.Alloc(c.size); ok {
					b.Fatal("allocation succeeded on a full level")
				}
			}
			b.StopTimer()
			for _, off := range planted {
				h.Free(off)
			}
		})
	}
}
