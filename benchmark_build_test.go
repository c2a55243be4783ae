package nbbs_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleCompiles builds and vets the benchmark/ module — the
// repository's yardstick, which is a separate module that
// `go build ./... && go test ./...` at the root never sees — so removing
// API it composes its stacks from fails tier-1 instead of the next
// benchmark run. Compile only (seconds); the flags are run.sh's.
func TestBenchmarkModuleCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	// -o: a lone main package would otherwise drop its binary in benchmark/.
	for _, args := range [][]string{{"build", "-o", t.TempDir(), "./..."}, {"vet", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in benchmark/: %v\n%s", args, err, out)
		}
	}
}
