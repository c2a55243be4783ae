// Command nbbsfig regenerates the paper's figures: for a figure id in
// 8..12 it runs the corresponding experiment grid and prints one table per
// panel (one per request size), or gnuplot-ready series with -gnuplot.
//
// Examples:
//
//	nbbsfig -fig 8 -scale 0.01              # quick-shape Figure 8
//	nbbsfig -fig all -scale 0.05 -reps 2    # every figure, 5% volume
//	nbbsfig -fig 10 -gnuplot > larson.dat   # plottable Larson series
//
// The default scale runs in CI time; -scale 1 reproduces the paper's
// operation volumes (20M ops per cell, 10s Larson windows).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 8 | 9 | 10 | 11 | 12 | all")
		threads = flag.String("threads", "", "override thread grid (default: the paper's 4,8,16,24,32)")
		scale   = flag.Float64("scale", 0.01, "fraction of the paper's operation volumes")
		reps    = flag.Int("reps", 1, "repetitions per cell")
		seed    = flag.Int64("seed", 1, "workload RNG seed")
		gnuplot = flag.Bool("gnuplot", false, "emit gnuplot series instead of tables")
		check   = flag.Bool("check", false, "grade the paper's shape claims on the measured data (exit 1 on failures)")
		quiet   = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	var threadList []int
	if *threads != "" {
		var err error
		threadList, err = harness.ParseThreads(*threads)
		if err != nil {
			fatal(err)
		}
	}
	var figures []harness.Figure
	if *fig == "all" {
		figures = harness.Figures(threadList, *scale, *reps, *seed)
	} else {
		var id int
		if _, err := fmt.Sscanf(*fig, "%d", &id); err != nil {
			fatal(fmt.Errorf("bad figure id %q", *fig))
		}
		f, err := harness.FigureByID(id, threadList, *scale, *reps, *seed)
		if err != nil {
			fatal(err)
		}
		figures = []harness.Figure{f}
	}
	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	failedClaims := 0
	for _, f := range figures {
		if !*gnuplot {
			cells, err := f.Run(os.Stdout, progress)
			if err != nil {
				fatal(err)
			}
			if *check {
				failedClaims += harness.ReportClaims(os.Stdout, harness.EvaluateShape(f, cells))
				fmt.Println()
			}
			continue
		}
		for _, sw := range f.Sweeps {
			cells, err := sw.Run(progress)
			if err != nil {
				fatal(err)
			}
			for _, size := range sw.Sizes {
				harness.GnuplotSeries(os.Stdout, cells, size, sw.Allocators, f.Metric)
			}
		}
	}
	if failedClaims > 0 {
		fmt.Fprintf(os.Stderr, "nbbsfig: %d shape claims failed\n", failedClaims)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbbsfig:", err)
	os.Exit(1)
}
