// Command nbbsinfo prints the derived tree geometry and metadata footprint
// of a buddy-system configuration: levels, chunk sizes, node counts, and
// the bytes of metadata each layout (1-level words vs 4-level bunches)
// needs — a capacity-planning and teaching aid.
//
// With -demo-ops it additionally builds a composed allocator stack
// (variant, optional multi-instance router, optional caching front-end,
// optional mapped memory), drives a short concurrent workload, and
// reports each layer's counters separately: front-end magazine hits and
// spills, routing fallbacks, back-end RMW/CAS traffic.
//
// Examples:
//
//	nbbsinfo -total 67108864 -min 8 -max 16384
//	nbbsinfo -total 16777216 -min 64 -max 65536 \
//	    -instances 4 -depot -mem -demo-ops 200000   # depot_* layer counters
//	nbbsinfo -instances 4 -depot -slab -demo-ops 200000  # per-class slab table
//	nbbsinfo -instances 2 -elastic -elastic-max 4 -demo-ops 400000
//	    # watermark config, per-instance utilization, lifecycle counters,
//	    # per-slot drain ages and time-to-retire
//	nbbsinfo -instances 2 -elastic -elastic-max 4 -mem -demo-ops 400000
//	    # mapped windows: per-slot commit map and commit/decommit totals
//	nbbsinfo -instances 2 -elastic -mem -latency -events -demo-ops 400000
//	    # per-layer latency percentile table and the flight-recorder dump
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	nbbs "repro"
	"repro/internal/elastic"
	"repro/internal/geometry"
)

func main() {
	var (
		total      = flag.Uint64("total", 64<<20, "managed bytes (power of two; per instance with -instances)")
		minSize    = flag.Uint64("min", 8, "allocation unit in bytes (power of two)")
		maxSize    = flag.Uint64("max", 16<<10, "maximum request size in bytes (power of two)")
		variant    = flag.String("variant", nbbs.Variant4Lvl, "allocator variant for -demo-ops")
		instances  = flag.Int("instances", 1, "back-end instances (multi-instance router layer)")
		depot      = flag.Bool("depot", false, "layer the caching front-end (magazines and their shared depot) over the back-end")
		slabFlag   = flag.Bool("slab", false, "layer the size-class slab over the stack (prints the per-class run/occupancy table)")
		mapped     = flag.Bool("mem", false, "back instance windows with mapped memory following the slot lifecycle (the demo touches every chunk's bytes; prints the commit map)")
		elasticOn  = flag.Bool("elastic", false, "wrap the router with the elastic capacity manager (demo polls it in the background)")
		elasticMin = flag.Int("elastic-min", 1, "elastic instance floor")
		elasticMax = flag.Int("elastic-max", 0, "elastic instance cap (0 = twice the initial instances)")
		demoOps    = flag.Int("demo-ops", 0, "drive this many ops through the stack and report per-layer stats")
		workers    = flag.Int("workers", 8, "worker goroutines for -demo-ops")
		latency    = flag.Bool("latency", false, "enable telemetry and print the per-layer latency percentile table (with -demo-ops)")
		events     = flag.Bool("events", false, "enable telemetry and dump the flight-recorder event ring (with -demo-ops)")
	)
	flag.Parse()

	geo, err := geometry.New(*total, *minSize, *maxSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbsinfo:", err)
		os.Exit(1)
	}
	fmt.Printf("configuration: total=%d min=%d max=%d\n", geo.Total, geo.MinSize, geo.MaxSize)
	fmt.Printf("tree depth: %d (leaves = allocation units: %d)\n", geo.Depth, geo.Leaves())
	fmt.Printf("max level: %d (climb destination; chunk size %d)\n", geo.MaxLevel, geo.SizeOfLevel(geo.MaxLevel))
	fmt.Printf("tree nodes: %d\n", geo.Nodes()-1)

	fmt.Printf("\n%-6s %14s %14s %10s\n", "level", "chunk bytes", "nodes", "bunchleaf")
	for l := 0; l <= geo.Depth; l++ {
		leaf := ""
		if geo.LeafLevelFor(l, geometry.BunchSpan) == l {
			leaf = "yes"
		}
		target := " "
		if l == geo.MaxLevel {
			target = "<- max level"
		}
		fmt.Printf("%-6d %14d %14d %10s %s\n", l, geo.SizeOfLevel(l), geometry.LevelWidth(l), leaf, target)
	}

	// Metadata footprints and RMW economics of the non-blocking leaf at
	// both bunch heights: 1lvl-nb (k = 1) and 4lvl-nb (k = 4).
	heights := []int{1, geometry.BunchSpan}
	fmt.Printf("\nmetadata footprint:\n")
	for _, k := range heights {
		bytes := geo.Words(k) * 8
		fmt.Printf("  %dlvl words  : %12d bytes (%.2f%% of managed memory, %d words)\n", k, bytes, pct(bytes, geo.Total), geo.Words(k))
	}
	indexBytes := geo.Leaves() * 4
	fmt.Printf("  index[]     : %12d bytes (%.2f%% of managed memory)\n", indexBytes, pct(indexBytes, geo.Total))
	fmt.Printf("\nworst-case RMW per allocation (min-size chunk):\n")
	for _, k := range heights {
		fmt.Printf("  %dlvl: %d (reserve + %d climb steps)\n", k, geo.Climb(k)+1, geo.Climb(k))
	}

	if *demoOps > 0 {
		cfg := nbbs.Config{
			Total: *total, MinSize: *minSize, MaxSize: *maxSize,
			Variant:   *variant,
			Backing:   nbbs.BackingConfig{Mapped: *mapped},
			Frontend:  nbbs.FrontendConfig{Depot: *depot, Slab: *slabFlag},
			Telemetry: *latency || *events,
		}
		if *instances > 1 {
			cfg.Backing.Instances = *instances
		}
		if *elasticOn {
			cfg.Elastic = &nbbs.ElasticConfig{
				MinInstances: *elasticMin,
				MaxInstances: *elasticMax,
			}
		}
		demo(cfg, *demoOps, *workers, *latency, *events)
	}
}

// demo builds the requested layer stack, drives a short mixed-size
// workload through per-worker handles, and prints each layer's counters.
func demo(cfg nbbs.Config, ops, workers int, latency, events bool) {
	b, err := nbbs.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbbsinfo:", err)
		os.Exit(1)
	}

	fmt.Printf("\nstack demo: %s, %d ops over %d workers\n", b.Name(), ops, workers)
	if mgr := b.Elastic(); mgr != nil {
		// Run the capacity policy in the background while the demo load is
		// on, so the printed lifecycle counters reflect real transitions.
		mgr.Start(500 * time.Microsecond)
		defer mgr.Stop()
	}
	sizes := []uint64{cfg.MinSize, cfg.MinSize * 4, cfg.MinSize * 16, cfg.MaxSize / 2}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := b.NewHandle()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var live []uint64
			for i := 0; i < ops/workers; i++ {
				if off, ok := h.Alloc(sizes[rng.Intn(len(sizes))]); ok {
					if cfg.Backing.Mapped {
						b.Bytes(off)[0] = byte(w) // touch the real memory
					}
					live = append(live, off)
				}
				if len(live) > 16 {
					h.Free(live[0])
					live = live[1:]
				}
			}
			for _, off := range live {
				h.Free(off)
			}
		}()
	}
	wg.Wait()
	if mgr := b.Elastic(); mgr != nil {
		// Scrub is quiescent-only: the background poller must stop before
		// it, or a concurrent Poll could batch-free depot magazines into
		// the leaves mid-rebuild.
		mgr.Stop()
	}
	b.Scrub()

	fmt.Printf("\nper-layer stats (top-down):\n")
	fmt.Printf("  %-24s %10s %10s %8s %10s %10s  %s\n",
		"layer", "allocs", "frees", "fails", "RMW", "CASfail", "extras")
	for _, layer := range b.LayerStats() {
		keys := make([]string, 0, len(layer.Extra))
		for k := range layer.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		extras := ""
		for _, k := range keys {
			extras += fmt.Sprintf("%s=%d ", k, layer.Extra[k])
		}
		fmt.Printf("  %-24s %10d %10d %8d %10d %10d  %s\n",
			layer.Layer, layer.Stats.Allocs, layer.Stats.Frees, layer.Stats.AllocFails,
			layer.Stats.RMW, layer.Stats.CASFail, extras)
	}

	if mgr := b.Elastic(); mgr != nil {
		mgr.Poll() // the stack is drained: complete any pending retires
	}
	if reg := b.Telemetry(); reg != nil && latency {
		fmt.Printf("\nlatency percentiles (sampled, top-down, ns):\n")
		fmt.Printf("  %-12s %-12s %10s %8s %8s %8s\n", "boundary", "op", "samples", "p50", "p99", "p999")
		for _, ll := range reg.Latencies() {
			for _, op := range ll.Ops {
				if op.Samples == 0 {
					continue
				}
				fmt.Printf("  %-12s %-12s %10d %8d %8d %8d\n",
					ll.Layer, op.Op, op.Samples, op.P50, op.P99, op.P999)
			}
		}
	}
	if reg := b.Telemetry(); reg != nil && events {
		ev := reg.Ring().Events()
		fmt.Printf("\nflight recorder: %d event(s) retained of %d published (oldest first):\n",
			len(ev), reg.Ring().Published())
		for _, e := range ev {
			fmt.Printf("  step=%-8d %-8s %-16s a=%d b=%d\n", e.Step, e.Source, e.Event, e.A, e.B)
		}
	}
	if sl := b.Slab(); sl != nil {
		fmt.Printf("\nsize-class slab: cutoff=%d run=%d bytes, frag=%d bytes\n",
			sl.Cutoff(), sl.RunBytes(), sl.FragBytes())
		fmt.Printf("  %-10s %12s %8s %10s %10s\n", "class", "objs/run", "runs", "live", "free")
		for _, ci := range sl.ClassInfos() {
			fmt.Printf("  %-10d %12d %8d %10d %10d\n", ci.Size, ci.ObjsPerRun, ci.Runs, ci.Live, ci.Free)
		}
	}
	if r := b.Memory(); r != nil {
		s := r.Stats()
		backing := "portable fallback (bookkeeping only)"
		if nbbs.MappedBacking() {
			backing = "platform mapped (decommit returns RSS)"
		}
		fmt.Printf("\nmapped memory backing: %s\n", backing)
		fmt.Printf("  windows: %d x %d bytes reserved (%d bytes), %d bytes committed\n",
			r.Windows(), r.WindowSize(), s.ReservedBytes, s.CommittedBytes)
		fmt.Printf("  lifecycle: commits=%d decommits=%d recommits=%d\n",
			s.Commits, s.Decommits, s.Recommits)
		if s.ReserveFails+s.CommitFails+s.DecommitFails > 0 {
			fmt.Printf("  degradation: reserve_fails=%d commit_fails=%d decommit_fails=%d\n",
				s.ReserveFails, s.CommitFails, s.DecommitFails)
		}
		fmt.Printf("  commit map:\n")
		for k, committed := range r.CommitMap() {
			state := "decommitted"
			if committed {
				state = "committed"
			}
			fmt.Printf("    window %-3d [%#012x, %#012x)  %s\n",
				k, uint64(k)*r.WindowSize(), uint64(k+1)*r.WindowSize(), state)
		}
	}

	if mgr := b.Elastic(); mgr != nil {
		cfg := mgr.Config()
		c := mgr.Counters()
		fmt.Printf("\nelastic capacity manager:\n")
		fmt.Printf("  watermarks: grow >= %.0f%% utilization, shrink <= %.0f%% (hysteresis %d polls)\n",
			elastic.HighWater*100, elastic.LowWater*100, elastic.Hysteresis)
		fmt.Printf("  fleet bounds: %d..%d instances\n", cfg.MinInstances, cfg.MaxInstances)
		fmt.Printf("  lifecycle: polls=%d grows=%d reactivations=%d drains=%d retires=%d denied_at_cap=%d\n",
			c.Polls, c.Grows, c.Reactivations, c.Drains, c.Retires, c.DeniedAtCap)
		if c.GrowFailures+c.GrowRetries+c.DeniedBackpressure+c.RetireFailures > 0 {
			fmt.Printf("  degradation: grow_failures=%d grow_retries=%d denied_backpressure=%d retire_failures=%d\n",
				c.GrowFailures, c.GrowRetries, c.DeniedBackpressure, c.RetireFailures)
		}
		if c.Retires > 0 {
			fmt.Printf("  last retirement: %d poll(s) from drain start\n", c.LastRetirePolls)
		}
		if ages := mgr.DrainAges(); len(ages) > 0 {
			fmt.Printf("  still draining (time-to-retire pending):\n")
			for _, a := range ages {
				fmt.Printf("    slot %-3d draining for %d poll(s), %d live chunk(s)\n", a.Slot, a.Polls, a.Live)
			}
		}
		span := mgr.Router().InstanceSpan()
		fmt.Printf("  per-instance utilization (%d-byte windows):\n", span)
		fmt.Printf("    %-5s %-9s %12s %14s %8s\n", "slot", "state", "live chunks", "live bytes", "util")
		for _, info := range mgr.Router().InstanceInfos() {
			fmt.Printf("    %-5d %-9s %12d %14d %7.1f%%\n",
				info.Slot, info.State, info.Live, info.LiveBytes,
				float64(info.LiveBytes)/float64(span)*100)
		}
	}
}

func pct(part, whole uint64) float64 { return float64(part) / float64(whole) * 100 }
