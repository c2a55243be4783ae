package nbbs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleCompiles builds, vets and smoke-runs the benchmark/
// module — the repository's yardstick, which is a separate module that
// `go build ./... && go test ./...` at the root never sees — so removing
// API it composes its stacks from, or breaking a stack it measures,
// fails tier-1 instead of the next benchmark run. The flags and
// environment are run.sh's; -smoke is 0.4 s per run.
func TestBenchmarkModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain and runs the benchmark")
	}
	env := append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local")
	bin := t.TempDir()
	// -o: a lone main package would otherwise drop its binary in benchmark/.
	for _, args := range [][]string{{"build", "-o", bin, "./..."}, {"vet", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		cmd.Env = env
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}

	// Like run.sh, run from the repository root: traced runs write under
	// benchmark/out.
	cmd := exec.Command(filepath.Join(bin, "benchmark"), "-smoke")
	cmd.Env = env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("benchmark -smoke: %v\n%s%s", err, out, stderr.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var summary struct {
		Results []struct {
			Workload string `json:"workload"`
			Trace    int    `json:"trace"`
			Correct  bool   `json:"correct"`
			Failed   uint64 `json:"failed"`
		} `json:"results"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &summary); err != nil {
		t.Fatalf("benchmark -smoke: last line is not the summary: %v\n%s", err, out)
	}
	if len(summary.Results) != 10 {
		t.Fatalf("benchmark -smoke: %d results, want 10 (five workloads, two modes)\n%s", len(summary.Results), out)
	}
	for _, r := range summary.Results {
		if !r.Correct || r.Failed != 0 {
			t.Errorf("benchmark -smoke: %s (trace %d) correct=%v failed=%d", r.Workload, r.Trace, r.Correct, r.Failed)
		}
	}
}
