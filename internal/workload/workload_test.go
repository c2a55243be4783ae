package workload_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/workload"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
	_ "repro/internal/slbuddy"
	_ "repro/internal/stack"
)

var testInstance = alloc.Config{Total: 1 << 22, MinSize: 8, MaxSize: 16 << 10}

func TestDriversCompleteOnEveryAllocator(t *testing.T) {
	for _, allocator := range alloc.Names() {
		for name, driver := range workload.Drivers {
			t.Run(allocator+"/"+name, func(t *testing.T) {
				a, err := alloc.Build(allocator, testInstance)
				if err != nil {
					t.Fatal(err)
				}
				res := driver(a, workload.Config{Threads: 4, Size: 64, Scale: 0.001, Seed: 1})
				if res.Ops == 0 {
					t.Fatalf("%s on %s completed zero operations", name, allocator)
				}
				if res.Workload != name {
					t.Fatalf("result workload = %q, want %q", res.Workload, name)
				}
				// Composed stacks display structural names ("cached+multi[4x
				// 4lvl-nb]") that differ from their registry label; the
				// harness re-keys its cells for that. Drivers must label the
				// result with the allocator they actually ran.
				if res.Allocator != a.Name() {
					t.Fatalf("result allocator = %q, want %q", res.Allocator, a.Name())
				}
				// Every driver must return the instance drained: a paired
				// number of allocs and frees.
				s := a.Stats()
				if s.Allocs != s.Frees {
					t.Fatalf("%s on %s left %d allocs vs %d frees", name, allocator, s.Allocs, s.Frees)
				}
			})
		}
	}
}

func TestLinuxScalabilityOpsVolume(t *testing.T) {
	a, err := alloc.Build("1lvl-nb", testInstance)
	if err != nil {
		t.Fatal(err)
	}
	res := workload.LinuxScalability(a, workload.Config{Threads: 4, Size: 8, Scale: 0.0001, Seed: 1})
	// 20M * 0.0001 = 2000 iterations split over 4 threads, 2 ops each.
	if want := uint64(2000 / 4 * 4 * 2); res.Ops != want {
		t.Fatalf("ops = %d, want %d", res.Ops, want)
	}
	if res.Fails != 0 {
		t.Fatalf("%d allocation failures on an idle instance", res.Fails)
	}
}

func TestThroughputPositive(t *testing.T) {
	a, err := alloc.Build("4lvl-nb", testInstance)
	if err != nil {
		t.Fatal(err)
	}
	res := workload.Larson(a, workload.Config{Threads: 2, Size: 128, Scale: 0.002, Seed: 3})
	if res.Throughput() <= 0 {
		t.Fatalf("throughput = %f", res.Throughput())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (workload.Config{Threads: 0, Size: 8}).Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	if err := (workload.Config{Threads: 1, Size: 0}).Validate(); err == nil {
		t.Error("zero size accepted")
	}
	if err := (workload.Config{Threads: 1, Size: 8}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
