// Command nbbsbench runs one benchmark sweep: a workload over a grid of
// allocator variants, thread counts and request sizes, on freshly built
// allocators. Composed layer stacks are registered variants too, so the
// paper's future-work compositions sweep like any leaf allocator:
// "cached+4lvl-nb" (front-end magazines), "multi4+4lvl-nb" (4-instance
// NUMA-style router splitting -total), and "cached+multi4+4lvl-nb".
//
// Examples:
//
//	nbbsbench -workload linux-scalability -threads 4,8,16 -sizes 8,128 -scale 0.01
//	nbbsbench -workload larson -alloc 4lvl-nb,buddy-sl -csv
//	nbbsbench -workload larson -alloc 4lvl-nb,cached+multi4+4lvl-nb -threads 8
//	nbbsbench -workload constant-occupancy -scale 1 -reps 3   # paper volume
//	nbbsbench -workload remote-free -alloc cached+multi4+4lvl-nb,depot+multi4+4lvl-nb \
//	    -json -label pr2 > BENCH_pr2.json
//	nbbsbench -workload frag -alloc 4lvl-nb -threads 8 -cpuprofile cpu.prof \
//	    && go tool pprof -top cpu.prof   # diagnose a hot-path regression
//	nbbsbench -workload burst -alloc depot+multi4+4lvl-nb,elastic+multi+4lvl-nb \
//	    -threads 8   # sawtooth live-set; the elastic stack grows/retires
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/alloc"
	"repro/internal/harness"
	"repro/internal/workload"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
	_ "repro/internal/slbuddy"
	_ "repro/internal/stack"
)

func main() {
	var (
		workloadName = flag.String("workload", "linux-scalability", "comma-separated workloads: "+strings.Join(workload.Names(), " | "))
		allocators   = flag.String("alloc", strings.Join(harness.AllocatorsUserSpace, ","), "comma-separated allocator variants")
		threads      = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		procsFlag    = flag.String("procs", "", "comma-separated GOMAXPROCS values (e.g. 1,4,8): run every cell once per value and report scaling efficiency (throughput@P / P*throughput@1); empty = current GOMAXPROCS only")
		sizes        = flag.String("sizes", "8,128,1024", "comma-separated request sizes in bytes")
		total        = flag.Uint64("total", harness.UserSpaceInstance.Total, "managed bytes per instance (power of two)")
		minSize      = flag.Uint64("min", harness.UserSpaceInstance.MinSize, "allocation unit in bytes (power of two)")
		maxSize      = flag.Uint64("max", harness.UserSpaceInstance.MaxSize, "maximum request size in bytes (power of two)")
		scale        = flag.Float64("scale", 0.01, "fraction of the paper's operation volumes (1 = 20M ops / 10s Larson window)")
		reps         = flag.Int("reps", 1, "repetitions per cell (mean reported)")
		seed         = flag.Int64("seed", 1, "workload RNG seed")
		lockKind     = flag.String("lock", "", "spin-lock flavor for blocking variants: tas | ttas | ticket")
		csv          = flag.Bool("csv", false, "emit CSV instead of tables")
		jsonOut      = flag.Bool("json", false, "emit the machine-readable JSON report (BENCH trajectory format)")
		label        = flag.String("label", "", "label recorded in the JSON report (e.g. pr2)")
		kops         = flag.Bool("kops", false, "report KOps/s instead of seconds")
		latency      = flag.Bool("latency", true, "record sampled per-op latency percentiles (p50/p99/p999) per cell; -latency=false measures throughput with no telemetry probe at all")
		quiet        = flag.Bool("q", false, "suppress per-cell progress lines")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
		memProfile   = flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	)
	flag.Parse()

	// Profiling hooks: hot-path regressions are diagnosable straight from
	// the harness (`nbbsbench ... -cpuprofile cpu.pb.gz` then
	// `go tool pprof`), no editing required. The profile spans the whole
	// sweep, so profile one cell (one workload/alloc/thread/size) for a
	// clean attribution.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	workloads := strings.Split(*workloadName, ",")
	for _, w := range workloads {
		if _, ok := workload.Drivers[w]; !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; valid: %s\n", w, strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
	}
	threadList, err := harness.ParseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	sizeList, err := harness.ParseSizes(*sizes)
	if err != nil {
		fatal(err)
	}
	procsList := []int{0} // 0 = leave GOMAXPROCS alone, no procs stamp
	if *procsFlag != "" {
		procsList, err = harness.ParseThreads(*procsFlag)
		if err != nil {
			fatal(err)
		}
		for _, p := range procsList {
			if p < 1 {
				fatal(fmt.Errorf("-procs values must be positive, got %d", p))
			}
		}
	}
	sweep := harness.Sweep{
		Allocators: strings.Split(*allocators, ","),
		Threads:    threadList,
		Sizes:      sizeList,
		Instance:   alloc.Config{Total: *total, MinSize: *minSize, MaxSize: *maxSize, LockKind: *lockKind},
		Scale:      *scale,
		Reps:       *reps,
		Seed:       *seed,
		Latency:    *latency,
	}
	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	var cells []harness.Cell
	for _, w := range workloads {
		sweep.Workload = w
		for _, p := range procsList {
			sweep.Procs = p
			ws, err := sweep.Run(progress)
			if err != nil {
				fatal(err)
			}
			cells = append(cells, ws...)
		}
	}
	if *jsonOut {
		if err := harness.JSON(os.Stdout, *label, cells); err != nil {
			fatal(err)
		}
		return
	}
	if *csv {
		harness.CSV(os.Stdout, cells)
		return
	}
	for _, w := range workloads {
		metric := harness.MetricSeconds
		if *kops || w == "larson" || w == "remote-free" {
			metric = harness.MetricKOps
		}
		var sub []harness.Cell
		for _, c := range cells {
			if c.Workload == w {
				sub = append(sub, c)
			}
		}
		for _, size := range sizeList {
			harness.Table(os.Stdout, fmt.Sprintf("%s - Bytes=%d", w, size), sub, size, sweep.Allocators, metric)
			fmt.Println()
		}
	}
	if *procsFlag != "" {
		harness.ScalingTable(os.Stdout, cells)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbbsbench:", err)
	os.Exit(1)
}
