package harness_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/harness"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
)

var tinyInstance = alloc.Config{Total: 1 << 22, MinSize: 8, MaxSize: 16 << 10}

func TestSweepGridShape(t *testing.T) {
	sw := harness.Sweep{
		Workload:   "linux-scalability",
		Allocators: []string{"1lvl-nb", "buddy-sl"},
		Threads:    []int{1, 2},
		Sizes:      []uint64{8, 128},
		Instance:   tinyInstance,
		Scale:      0.0005,
		Reps:       2,
		Seed:       1,
	}
	cells, err := sw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Ops == 0 {
			t.Fatalf("cell %+v completed zero ops", c.Result)
		}
		if c.Summary.N != 2 {
			t.Fatalf("cell summarizes %d reps, want 2", c.Summary.N)
		}
	}
}

func TestSweepUnknownWorkload(t *testing.T) {
	if _, err := (harness.Sweep{Workload: "nope"}).Run(nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestTableRendering(t *testing.T) {
	sw := harness.Sweep{
		Workload:   "thread-test",
		Allocators: []string{"1lvl-nb", "1lvl-sl"},
		Threads:    []int{1, 2},
		Sizes:      []uint64{64},
		Instance:   tinyInstance,
		Scale:      0.001,
		Seed:       1,
	}
	cells, err := sw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	harness.Table(&buf, "Thread Test - Bytes=64", cells, 64, sw.Allocators, harness.MetricSeconds)
	out := buf.String()
	for _, want := range []string{"Thread Test - Bytes=64", "1lvl-nb", "1lvl-sl", "threads"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 4 { // header comment + column row + 2 thread rows
		t.Fatalf("table has %d lines, want 4:\n%s", lines, out)
	}
}

func TestCSVRendering(t *testing.T) {
	sw := harness.Sweep{
		Workload:   "larson",
		Allocators: []string{"4lvl-nb"},
		Threads:    []int{2},
		Sizes:      []uint64{8},
		Instance:   tinyInstance,
		Scale:      0.001,
		Seed:       1,
	}
	cells, err := sw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	harness.CSV(&buf, cells)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header+1:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "larson,4lvl-nb,8,2,") {
		t.Fatalf("unexpected CSV row: %s", lines[1])
	}
}

func TestFigureDefinitions(t *testing.T) {
	figs := harness.Figures(nil, 1, 1, 1)
	if len(figs) != 5 {
		t.Fatalf("got %d figures, want 5", len(figs))
	}
	ids := map[int]bool{}
	for _, f := range figs {
		ids[f.ID] = true
	}
	for id := 8; id <= 12; id++ {
		if !ids[id] {
			t.Fatalf("figure %d missing", id)
		}
	}
	if _, err := harness.FigureByID(7, nil, 1, 1, 1); err == nil {
		t.Fatal("figure 7 should not exist")
	}
	f12, err := harness.FigureByID(12, nil, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f12.Sweeps) != 3 {
		t.Fatalf("figure 12 has %d sweeps, want 3 workloads", len(f12.Sweeps))
	}
	for _, sw := range f12.Sweeps {
		if len(sw.Sizes) != 1 || sw.Sizes[0] != 128<<10 {
			t.Fatalf("figure 12 sweep sizes = %v, want [131072]", sw.Sizes)
		}
	}
}

func TestParseHelpers(t *testing.T) {
	sizes, err := harness.ParseSizes("8, 128,1024")
	if err != nil || len(sizes) != 3 || sizes[2] != 1024 {
		t.Fatalf("ParseSizes = %v, %v", sizes, err)
	}
	threads, err := harness.ParseThreads("4,8")
	if err != nil || len(threads) != 2 || threads[1] != 8 {
		t.Fatalf("ParseThreads = %v, %v", threads, err)
	}
	if _, err := harness.ParseSizes("x"); err == nil {
		t.Error("bad size accepted")
	}
	if _, err := harness.ParseThreads("y"); err == nil {
		t.Error("bad thread count accepted")
	}
}

func TestGnuplotSeries(t *testing.T) {
	sw := harness.Sweep{
		Workload:   "constant-occupancy",
		Allocators: []string{"1lvl-nb"},
		Threads:    []int{1, 2},
		Sizes:      []uint64{8},
		Instance:   tinyInstance,
		Scale:      0.0005,
		Seed:       1,
	}
	cells, err := sw.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	harness.GnuplotSeries(&buf, cells, 8, sw.Allocators, harness.MetricSeconds)
	if !strings.Contains(buf.String(), "# series 1lvl-nb bytes=8") {
		t.Fatalf("missing series header:\n%s", buf.String())
	}
	if got := strings.Count(buf.String(), "\n1 ") + strings.Count(buf.String(), "\n2 "); got != 2 {
		t.Fatalf("expected 2 data rows, got %d:\n%s", got, buf.String())
	}
}
