package workload_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/multi"
	"repro/internal/stack"
	"repro/internal/workload"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
	_ "repro/internal/slbuddy"
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

// TestBurstSawtoothOnFixedStack pins the pure-driver behaviour: without a
// capacity manager the sawtooth completes and drains (the balance check
// in TestDriversCompleteOnEveryAllocator already covers every allocator;
// this asserts a meaningful op volume for the shape parameters).
func TestBurstSawtoothOnFixedStack(t *testing.T) {
	a, err := alloc.Build("4lvl-nb", testInstance)
	if err != nil {
		t.Fatal(err)
	}
	res := workload.Burst(a, workload.Config{Threads: 2, Size: 64, Scale: 0.001, Seed: 1})
	if res.Ops == 0 {
		t.Fatal("burst completed zero operations")
	}
	s := a.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("burst left %d allocs vs %d frees", s.Allocs, s.Frees)
	}
}

// TestBurstDrivesElasticLifecycle is the driver/manager contract: held
// peaks above the high watermark must grow the instance set, and held
// troughs must drain and retire instances — within a single run.
func TestBurstDrivesElasticLifecycle(t *testing.T) {
	st, err := stack.Build(stack.Spec{
		Variant:   "4lvl-nb",
		Per:       alloc.Config{Total: 1 << 20, MinSize: 8, MaxSize: 16 << 10},
		Instances: 2,
		Elastic:   &elastic.Config{MinInstances: 1, MaxInstances: 4, Hysteresis: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := workload.Burst(st.Top, workload.Config{Threads: 2, Size: 128, Scale: 0.01, Seed: 1})
	if res.Ops == 0 {
		t.Fatal("burst completed zero operations")
	}
	c := st.Elastic.Counters()
	if c.Polls == 0 {
		t.Fatal("the driver never polled the capacity manager it was given")
	}
	if c.Grows+c.Reactivations == 0 {
		t.Fatalf("held peaks above the high watermark never grew the fleet: %+v", c)
	}
	if c.Drains == 0 || c.Retires == 0 {
		t.Fatalf("held troughs never drained/retired an instance: %+v", c)
	}
	// The run ends fully drained; one more poll completes any pending
	// retires, landing the fleet back at (or above) the floor.
	st.Elastic.Poll()
	for _, info := range st.Elastic.Router().InstanceInfos() {
		if info.State == multi.Draining {
			t.Fatalf("slot %d still draining after the drained run (live=%d)", info.Slot, info.Live)
		}
	}
	if got := st.Elastic.Router().Instances(); got < 1 || got > 4 {
		t.Fatalf("fleet landed at %d instances, outside [1,4]", got)
	}
}

// TestBurstStragglerMigratesOnElasticStack is the workload half of the
// bounded-retirement contract, on the single-threaded shape migration
// is safe under (the quiescence contract: chunks on a draining slot
// must not be freed concurrently with a migrating Poll — one worker
// serializes both). The worker fills its preferred slot 0 and spills
// the overflow plus the parked straggler onto slot 1; the trough frees
// newest-first, so slot 1 comes back down to exactly the straggler —
// the slot can never empty by itself, yet it is always the drain
// victim (slot 0 carries the trough chunks' bytes). With migration
// enabled the run must complete its drain/retire cycles anyway: the
// manager moves the straggler and the driver's OnMigrate hook rewrites
// the held reference so the final free lands at the new address.
func TestBurstStragglerMigratesOnElasticStack(t *testing.T) {
	st, err := stack.Build(stack.Spec{
		Variant:   "4lvl-nb",
		Per:       alloc.Config{Total: 1 << 20, MinSize: 8, MaxSize: 16 << 10},
		Instances: 2,
		Elastic: &elastic.Config{
			MinInstances: 1, MaxInstances: 2, Hysteresis: 2,
			Migration: elastic.MigrationConfig{Enabled: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := workload.BurstStraggler(st.Top, workload.Config{Threads: 1, Size: 128, Scale: 0.01, Seed: 1})
	if res.Ops == 0 {
		t.Fatal("burst-straggler completed zero operations")
	}
	c := st.Elastic.Counters()
	if c.Drains == 0 || c.Retires == 0 {
		t.Fatalf("troughs never drained/retired an instance: %+v", c)
	}
	if c.MigratedChunks == 0 {
		t.Fatalf("the held straggler never forced a migration: %+v", c)
	}
	// The driver freed the straggler at its final (migrated) address:
	// the stack drains to balance.
	s := st.Top.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("run left %d allocs vs %d frees", s.Allocs, s.Frees)
	}
	st.Elastic.Poll()
	for _, info := range st.Elastic.Router().InstanceInfos() {
		if info.State == multi.Draining {
			t.Fatalf("slot %d still draining after the drained run (live=%d)", info.Slot, info.Live)
		}
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

func TestFragPlantsCheckerboardAndDrains(t *testing.T) {
	a, err := alloc.Build("4lvl-nb", testInstance)
	if err != nil {
		t.Fatal(err)
	}
	res := workload.Frag(a, workload.Config{Threads: 4, Size: 64, Scale: 0.0001, Seed: 1})
	if res.Ops == 0 {
		t.Fatal("frag completed zero timed operations")
	}
	// The planted checkerboard must leave holes for the timed phase: a
	// fully planted instance would fail every timed allocation.
	if res.Fails == res.Ops {
		t.Fatal("every timed allocation failed: no holes were left")
	}
	// The driver releases its long-lived chunks afterwards: the whole
	// region must be allocatable again (Scrub sheds benign residue).
	if s, ok := a.(interface{ Scrub() }); ok {
		s.Scrub()
	}
	off, ok := a.Alloc(testInstance.MaxSize)
	if !ok {
		t.Fatal("max-size alloc failed after frag drained")
	}
	a.Free(off)
}
