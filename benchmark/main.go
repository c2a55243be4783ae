// Command benchmark is the repository's one repeatable benchmark: a
// single-process, closed-loop load generator that drives allocator stacks
// built through the public nbbs.New API on five workloads, prints every
// end-to-end metric (untraced run) and every per-layer metric (traced
// run) by name and unit, and checks the stacks' outputs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// result is the last line a contract run prints: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an -out file and one entry of the summary.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// traceDir is where a traced run writes trace-<workload>.jsonl, relative
// to the repository root run.sh starts the binary in.
const traceDir = "benchmark/out"

// workerCount is T = min(nproc, 4): the composites measured here are the
// ones we would ship on <= 4 cores, and more workers than CPUs measures
// the scheduler.
func workerCount() int { return min(runtime.NumCPU(), 4) }

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all five, both modes, then a summary)")
		seed    = flag.Uint64("seed", 1, "tape seed")
		seconds = flag.Float64("seconds", 15, "measuring time of one run")
		traced  = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics (untraced), 1 the per-layer metrics (traced)")
		smoke   = flag.Bool("smoke", false, "0.4 s per run, two set-ups: keeps the benchmark compiling and correct, measures nothing")
		out     = flag.String("out", "", "append one JSON line per result to this file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		ok, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	T := workerCount()
	runtime.GOMAXPROCS(T)
	sh := shape{seconds: *seconds, epochs: 20}
	if *smoke {
		sh = shape{seconds: 0.4, epochs: 2}
	}
	clockNs := calibrateClock(nanotime)
	fmt.Printf("nproc=%d GOMAXPROCS=%d workers=%d clock pair %.1f ns\n", runtime.NumCPU(), T, T, clockNs)

	run := func(wl workload, mode int) record {
		var r *runResult
		var err error
		if mode == 0 {
			r, err = runUntraced(wl, T, *seed, sh)
		} else {
			r, err = runTraced(wl, T, *seed, sh, clockNs, traceDir)
		}
		if err != nil {
			// A correctness violation prints no metrics.
			fatal(err)
		}
		fmt.Printf("== %s (trace %d): %s\n", wl.name(), mode, wl.why())
		for _, n := range r.notes {
			fmt.Println(n)
		}
		names := make([]string, 0, len(r.metrics))
		for n := range r.metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-34s %16.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
		}
		fmt.Printf("  attempted %d ops, failed %d\n", r.attempted, r.failed)
		rec := record{wl.name(), *seed, mode, result{true, r.attempted, r.failed, r.metrics}}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		return rec
	}

	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rec := run(wl, *traced)
		line, err := json.Marshal(rec.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}

	var all []record
	for _, wl := range workloads {
		all = append(all, run(wl, 0), run(wl, 1))
	}
	// This benchmark defines the yardstick; it claims no gain.
	summary, err := json.Marshal(struct {
		Results []record `json:"results"`
		Claim   *string  `json:"claim"`
	}{all, nil})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(summary))
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
