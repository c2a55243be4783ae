package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords groups an -out file's values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vals := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if vals[rec.Workload] == nil {
			vals[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			vals[rec.Workload][name] = append(vals[rec.Workload][name], m.Value)
		}
	}
	return vals, sc.Err()
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// sides' medians and quartiles and a verdict: "ok" when b's median is no
// worse than a's by more than the metric's bound, "WORSE" when it is, and
// "unresolved" when either side's own spread (IQR/median) exceeds the
// bound, so the runs cannot tell. It reports whether every row is ok.
func compareFiles(a, b string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-compare runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	va, err := readRecords(a)
	if err != nil {
		return false, err
	}
	vb, err := readRecords(b)
	if err != nil {
		return false, err
	}
	var names []string
	for wl := range va {
		names = append(names, wl)
	}
	sort.Strings(names)
	allOK := true
	fmt.Fprintf(w, "%-14s %-26s %13s %25s %13s %25s %8s %6s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "change", "bound", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			xa, xb := va[wl][m.Name], vb[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			// worse > 0 means b is worse than a, as a share of a's median.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case (a3-a1)/ma > m.Bound || (b3-b1)/mb > m.Bound:
				verdict, allOK = "unresolved", false
			case worse > m.Bound:
				verdict, allOK = "WORSE", false
			}
			fmt.Fprintf(w, "%-14s %-26s %13.6g %12.6g..%-11.6g %13.6g %12.6g..%-11.6g %+7.1f%% %5.0f%%  %s\n",
				wl, m.Name, ma, a1, a3, mb, b1, b3, 100*(mb-ma)/ma, 100*m.Bound, verdict)
		}
	}
	return allOK, nil
}
