package main

import (
	"os"
	"strings"
	"testing"
)

func TestCompareAppliesBounds(t *testing.T) {
	t.Chdir(t.TempDir())
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(os.WriteFile("BENCHMARK.json", []byte(`{"end_to_end":[
		{"name":"ops_per_s","unit":"ops/s","better":"higher","bound":0.1},
		{"name":"alloc_p99_ns","unit":"ns","better":"lower","bound":0.2}]}`), 0o644))
	write := func(path string, ops, p99 []float64) {
		os.Remove(path)
		for i := range ops {
			must(appendRecord(path, record{Workload: "w", result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"ops_per_s": {ops[i], "ops/s"}, "alloc_p99_ns": {p99[i], "ns"}}}}))
		}
	}
	steady := []float64{100, 101, 99, 100, 102}
	write("a.jsonl", steady, steady)

	cases := []struct {
		name     string
		ops, p99 []float64
		ok       bool
		want     string
	}{
		{"same", steady, steady, true, "ok"},
		{"slower", []float64{85, 86, 84, 85, 87}, steady, false, "WORSE"},
		{"faster", []float64{150, 151, 149, 150, 152}, steady, true, "ok"},
		{"higher p99 within bound", steady, []float64{115, 116, 114, 115, 117}, true, "ok"},
		{"noisy", []float64{60, 100, 140, 80, 120}, steady, false, "unresolved"},
	}
	for _, c := range cases {
		write("b.jsonl", c.ops, c.p99)
		var out strings.Builder
		ok, err := compareFiles("a.jsonl", "b.jsonl", &out)
		must(err)
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
}
