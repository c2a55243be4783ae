package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload through both modes with 0.1 s windows: it
// keeps the whole benchmark compiling, correct (the checked pass, the
// reconciliation and the MaxSize check all run) and printing every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	var bf struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
		Workload []struct{ Name string } `json:"workloads"`
	}
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &bf)
	if len(bf.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workload), len(workloads))
	}
	sh := shape{seconds: 0.4, epochs: 2}
	clockNs := calibrateClock(nanotime)
	T := min(workerCount(), 2)
	for i, wl := range workloads {
		if bf.Workload[i].Name != wl.name() {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, bf.Workload[i].Name, wl.name())
		}
		r, err := runUntraced(wl, T, 1, sh)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range bf.EndToEnd {
			if v, ok := r.metrics[m.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v)", wl.name(), m.Name, v.Value, ok)
			}
		}
		if len(r.metrics) != len(bf.EndToEnd) || r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d metrics, %d attempted, %d failed", wl.name(), len(r.metrics), r.attempted, r.failed)
		}
		r, err = runTraced(wl, T, 1, sh, clockNs, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range bf.PerLayer {
			if _, ok := r.metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wl.name(), m.Name)
			}
		}
		if len(r.metrics) != len(bf.PerLayer) {
			t.Errorf("%s: %d per-layer metrics printed, BENCHMARK.json lists %d", wl.name(), len(r.metrics), len(bf.PerLayer))
		}
		if got := r.metrics["trace.self_sum_ratio"].Value; got < 0.98 || got > 1.02 {
			t.Errorf("%s: layer self times are %.3f of root-span time", wl.name(), got)
		}
	}
}

func readJSON(t *testing.T, path string, into any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
