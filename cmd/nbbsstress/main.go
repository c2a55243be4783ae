// Command nbbsstress drives any allocator variant with reproducible
// concurrent schedules under runtime verification (verify.Stress): every
// delivered chunk is claimed in a unit-granular shadow map at
// max(ChunkSize, the request rounded up to MinSize), so overlapping
// allocations (paper safety property S1), chunks delivered smaller than
// requested, and unbacked releases (S2) are detected the moment they
// happen. It is the repository's fuzzer: run it long, vary
// seeds, and any safety bug in an allocator becomes a counted incident
// with a reproducible seed.
//
// With -chaos it runs the other harness instead: the differential
// map-oracle over the mapped elastic composites while a seeded fault
// schedule fails the region's lifecycle syscalls underneath them
// (internal/chaos). Any invariant violation — or a failure to recover
// once the schedule clears — is an incident, and the recorded fault
// schedule is written as a JSON artifact that -chaos-replay reproduces
// exactly.
//
// Examples:
//
//	nbbsstress -variant 4lvl-nb -workers 16 -ops 1000000
//	nbbsstress -variant 1lvl-nb -seeds 50            # 50 seeds, CI-sized runs
//	nbbsstress -all -workers 8                       # every variant once
//	nbbsstress -chaos -seeds 25                      # the CI chaos gate
//	nbbsstress -chaos -chaos-replay chaos-incident-mapped+elastic-7.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/verify"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
	_ "repro/internal/stack"
)

func main() {
	var (
		variant  = flag.String("variant", "4lvl-nb", "allocator variant to stress")
		all      = flag.Bool("all", false, "stress every registered variant")
		workers  = flag.Int("workers", 8, "concurrent goroutines")
		ops      = flag.Int("ops", 200000, "operations per worker per seed")
		seeds    = flag.Int("seeds", 1, "number of seeds to run (seed = base..base+n-1)")
		baseSeed = flag.Uint64("seed", 1, "base seed")
		total    = flag.Uint64("total", 1<<24, "managed bytes")
		minSize  = flag.Uint64("min", 8, "allocation unit")
		maxSize  = flag.Uint64("max", 1<<14, "maximum request size")
		sizesArg = flag.String("sizes", "8,64,512,4096,16384", "request-size mix")
		freeBias = flag.Int("freebias", 40, "percent of steps that free (0-100)")
		maxLive  = flag.Int("maxlive", 64, "per-worker live-chunk cap (0: none)")

		chaosMode   = flag.Bool("chaos", false, "run the fault-schedule differential harness instead")
		chaosProb   = flag.Float64("chaos-prob", 0.05, "per-syscall fault probability of the chaos schedule")
		chaosReplay = flag.String("chaos-replay", "", "replay a recorded incident schedule (JSON file)")
	)
	flag.Parse()

	if *chaosMode {
		os.Exit(runChaos(*seeds, *baseSeed, *ops, *chaosProb, *chaosReplay))
	}

	sizes, err := harness.ParseSizes(*sizesArg)
	if err != nil {
		fatal(err)
	}
	variants := []string{*variant}
	if *all {
		variants = alloc.Names()
	}
	failures := 0
	for _, v := range variants {
		for s := 0; s < *seeds; s++ {
			seed := *baseSeed + uint64(s)
			a, err := alloc.Build(v, alloc.Config{Total: *total, MinSize: *minSize, MaxSize: *maxSize})
			if err != nil {
				fatal(err)
			}
			start := time.Now()
			rep, err := verify.Stress(a, verify.StressConfig{
				Workers:  *workers,
				Ops:      *ops,
				Sizes:    sizes,
				FreeBias: *freeBias,
				MaxLive:  *maxLive,
				Seed:     seed,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%-12s seed=%-6d %8.2fs  %s\n", v, seed, time.Since(start).Seconds(), rep)
			if rep.Failed() {
				failures++
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "nbbsstress: %d failing runs\n", failures)
		os.Exit(1)
	}
}

// incident is the JSON artifact of a failing chaos run: everything
// needed to reproduce it (-chaos-replay) plus the violations observed.
type incident struct {
	chaos.Report
	ReplayWith string `json:"replay_with"`
}

// runChaos executes the chaos gate: seeds × composites, default-sized
// runs, each run's -ops steps under an active fault schedule. A failing
// run writes its recorded schedule as chaos-incident-<composite>-<seed>.json.
func runChaos(seeds int, baseSeed uint64, ops int, prob float64, replayPath string) int {
	steps := ops
	if steps > 100000 {
		// The chaos oracle is single-threaded and per-step; -ops defaults
		// are sized for the concurrent stress harness.
		steps = 100000
	}
	var replay []fault.Fault
	composites := chaos.Composites()
	if replayPath != "" {
		blob, err := os.ReadFile(replayPath)
		if err != nil {
			fatal(err)
		}
		var inc incident
		if err := json.Unmarshal(blob, &inc); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", replayPath, err))
		}
		replay = inc.Schedule
		composites = []string{inc.Composite}
		baseSeed, seeds, steps = inc.Seed, 1, inc.Steps
	}
	failures := 0
	for _, composite := range composites {
		for s := 0; s < seeds; s++ {
			seed := baseSeed + uint64(s)
			start := time.Now()
			rep := chaos.Run(chaos.Config{
				Composite: composite,
				Seed:      seed,
				Steps:     steps,
				Prob:      prob,
				Replay:    replay,
			})
			status := "ok"
			if !rep.OK() {
				status = "FAIL"
				failures++
				name := fmt.Sprintf("chaos-incident-%s-%d.json", composite, seed)
				blob, _ := json.MarshalIndent(incident{
					Report:     rep,
					ReplayWith: fmt.Sprintf("nbbsstress -chaos -chaos-replay %s", name),
				}, "", "  ")
				if err := os.WriteFile(name, blob, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "nbbsstress: writing incident %s: %v\n", name, err)
				} else {
					fmt.Fprintf(os.Stderr, "nbbsstress: incident schedule written to %s\n", name)
				}
				for _, v := range rep.Violations {
					fmt.Fprintf(os.Stderr, "nbbsstress:   violation: %s\n", v)
				}
			}
			fmt.Printf("chaos %-22s seed=%-6d %8.2fs  %-4s  ops=%d denied=%d injected=%d mid-drain-kills=%d\n",
				composite, seed, time.Since(start).Seconds(), status,
				rep.Ops, rep.Denied, rep.Injected, rep.MidDrainKills)
			if replayPath != "" {
				// A replay is a post-mortem: dump the flight recorder so the
				// lifecycle leading to the failure reads straight off stdout.
				fmt.Printf("flight recorder (%d events, oldest first):\n", len(rep.Events))
				for _, e := range rep.Events {
					fmt.Printf("  step=%-8d %-8s %-16s a=%d b=%d\n", e.Step, e.Source, e.Event, e.A, e.B)
				}
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "nbbsstress: %d failing chaos runs\n", failures)
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbbsstress:", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
