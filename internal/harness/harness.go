// Package harness runs the paper's experiments: it sweeps a workload over
// allocator variants, thread counts and request sizes, building a fresh
// single-instance allocator for every cell exactly as the evaluation does,
// and renders the resulting series as text tables or gnuplot-ready columns.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Sweep describes one experiment grid.
type Sweep struct {
	// Workload is a key of workload.Drivers.
	Workload string
	// Allocators are registry labels, in presentation order.
	Allocators []string
	// Threads and Sizes span the grid.
	Threads []int
	Sizes   []uint64
	// Instance is the allocator geometry every cell is built with.
	Instance alloc.Config
	// Scale multiplies the paper's iteration counts (1.0 = paper volume).
	Scale float64
	// Reps repeats each cell; the mean is reported.
	Reps int
	// Seed feeds the workload RNGs.
	Seed int64
}

// Cell is one measured grid point.
type Cell struct {
	workload.Result
	Summary stats.Summary // seconds across reps
}

// Run executes the sweep, streaming per-cell progress lines to progress
// (if non-nil) and returning all cells in sweep order.
func (s Sweep) Run(progress io.Writer) ([]Cell, error) {
	driver, ok := workload.Drivers[s.Workload]
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", s.Workload)
	}
	reps := s.Reps
	if reps <= 0 {
		reps = 1
	}
	var cells []Cell
	for _, size := range s.Sizes {
		for _, threads := range s.Threads {
			for _, name := range s.Allocators {
				samples := make([]float64, 0, reps)
				var last workload.Result
				var totOps, totFails uint64
				var totElapsed time.Duration
				for r := 0; r < reps; r++ {
					a, err := alloc.Build(name, s.Instance)
					if err != nil {
						return nil, fmt.Errorf("harness: building %s: %w", name, err)
					}
					cfg := workload.Config{
						Threads: threads,
						Size:    size,
						Scale:   s.Scale,
						Seed:    s.Seed + int64(r),
					}
					if err := cfg.Validate(); err != nil {
						return nil, err
					}
					last = driver(a, cfg)
					// Key the cell by the requested registry label: for
					// composed stacks the display name differs (e.g.
					// "cached+multi[4x 4lvl-nb]" vs "cached+multi4+4lvl-nb")
					// and tables match on the sweep's labels.
					last.Allocator = name
					samples = append(samples, last.Elapsed.Seconds())
					totOps += last.Ops
					totFails += last.Fails
					totElapsed += last.Elapsed
				}
				// Pool ops and elapsed across reps so Throughput is the
				// pooled mean, not the last rep's sample.
				last.Ops, last.Fails, last.Elapsed = totOps, totFails, totElapsed
				cell := Cell{Result: last, Summary: stats.Summarize(samples)}
				cells = append(cells, cell)
				if progress != nil {
					fmt.Fprintf(progress, "%-20s %-12s bytes=%-7d threads=%-3d %10.3fs %12.0f ops/s\n",
						s.Workload, name, size, threads, cell.Summary.Mean, cell.Throughput())
				}
			}
		}
	}
	return cells, nil
}

// Metric selects what a table reports.
type Metric int

const (
	// MetricSeconds reports mean execution time, the unit of the paper's
	// Figures 8, 9 and 11.
	MetricSeconds Metric = iota
	// MetricKOps reports throughput in KOps/sec, the unit of Figure 10.
	MetricKOps
	// MetricCycles reports nominal clock cycles (at 2 GHz), Figure 12's unit.
	MetricCycles
)

func (m Metric) value(c Cell) float64 {
	switch m {
	case MetricKOps:
		return c.Throughput() / 1e3
	case MetricCycles:
		return c.Summary.Mean * 2e9 // nominal 2 GHz, as the paper's testbed
	default:
		return c.Summary.Mean
	}
}

func (m Metric) unit() string {
	switch m {
	case MetricKOps:
		return "KOps/s"
	case MetricCycles:
		return "cycles(2GHz)"
	default:
		return "seconds"
	}
}

// Table renders the cells of one size as a threads x allocators table, the
// shape of one panel of a paper figure.
func Table(w io.Writer, title string, cells []Cell, size uint64, allocators []string, m Metric) {
	fmt.Fprintf(w, "# %s (%s)\n", title, m.unit())
	fmt.Fprintf(w, "%-8s", "threads")
	for _, a := range allocators {
		fmt.Fprintf(w, " %14s", a)
	}
	fmt.Fprintln(w)

	byThread := map[int]map[string]Cell{}
	var threads []int
	for _, c := range cells {
		if c.Size != size {
			continue
		}
		row, ok := byThread[c.Threads]
		if !ok {
			row = map[string]Cell{}
			byThread[c.Threads] = row
			threads = append(threads, c.Threads)
		}
		row[c.Allocator] = c
	}
	sort.Ints(threads)
	for _, t := range threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, a := range allocators {
			if c, ok := byThread[t][a]; ok {
				fmt.Fprintf(w, " %14.4g", m.value(c))
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// CSV renders cells as comma-separated rows with a header.
func CSV(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "workload,allocator,bytes,threads,reps,seconds,ops,ops_per_sec,fails")
	for _, c := range cells {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d,%.6f,%d,%.1f,%d\n",
			c.Workload, c.Allocator, c.Size, c.Threads, c.Summary.N, c.Summary.Mean, c.Ops, c.Throughput(), c.Fails)
	}
}

// GnuplotSeries renders one column block per allocator: "threads value"
// pairs separated by blank lines, directly plottable with gnuplot's index.
func GnuplotSeries(w io.Writer, cells []Cell, size uint64, allocators []string, m Metric) {
	for _, a := range allocators {
		fmt.Fprintf(w, "# series %s bytes=%d (%s)\n", a, size, m.unit())
		for _, c := range cells {
			if c.Allocator == a && c.Size == size {
				fmt.Fprintf(w, "%d %g\n", c.Threads, m.value(c))
			}
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w)
	}
}

// AllocatorsUserSpace is the comparison set of Figures 8-11, in the
// paper's legend order.
var AllocatorsUserSpace = []string{"4lvl-nb", "1lvl-nb", "4lvl-sl", "1lvl-sl", "buddy-sl"}

// AllocatorsKernelStyle is Figure 12's comparison set.
var AllocatorsKernelStyle = []string{"4lvl-nb", "1lvl-nb", "buddy-sl", "linux-buddy"}

// ParseSizes parses a comma-separated size list ("8,128,1024").
func ParseSizes(s string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(s, ",") {
		var v uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil {
			return nil, fmt.Errorf("harness: bad size %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseThreads parses a comma-separated thread list ("4,8,16,24,32").
func ParseThreads(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &v); err != nil {
			return nil, fmt.Errorf("harness: bad thread count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
