package stack_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloctest"
	"repro/internal/elastic"
	"repro/internal/stack"
	"repro/internal/telemetry"

	_ "repro/internal/bunch"
)

// TestDifferentialTelemetry fuzzes telemetry-probed stacks against the
// map-based oracle: Spec.Telemetry inserts a latency probe above every
// layer boundary, and the probed stack must stay exactly conformant —
// probes forward offsets, ChunkSize and Scrub untouched, and their
// LayerStats entries carry zero traffic so the per-layer reconciliation
// after the drain holds unchanged. Each 4000-step walk makes thousands
// of handle operations, so the probes take a timed sample every
// telemetry.SampleInterval of them, not just forward.
func TestDifferentialTelemetry(t *testing.T) {
	cases := []struct {
		name string
		spec stack.Spec
	}{
		{"depot+multi", stack.Spec{Variant: "4lvl-nb", Depot: true}},
		{"slab+depot+mapped+elastic+multi", stack.Spec{
			Variant: "4lvl-nb",
			Elastic: &elastic.Config{MinInstances: 1},
			Mapped:  true,
			Depot:   true,
			Slab:    true,
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			alloctest.RunDifferential(t, func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator {
				t.Helper()
				s := c.spec
				n := instancesFor(4, total, maxSize)
				s.Instances = n
				if s.Elastic != nil {
					e := *s.Elastic
					e.MaxInstances = 2 * n
					s.Elastic = &e
				}
				s.Per = alloc.Config{Total: total / uint64(n), MinSize: minSize, MaxSize: maxSize}
				s.Telemetry = telemetry.New()
				st, err := stack.Build(s)
				if err != nil {
					t.Fatalf("stack.Build: %v", err)
				}
				return st.Top
			})
		})
	}
}

// TestTelemetryProbesRecord pins the wiring end to end: a probed stack
// reports non-zero samples at its boundaries after handle traffic, the
// probe keeps the stack's name unchanged, and the flight recorder holds
// whatever lifecycle events the run produced.
func TestTelemetryProbesRecord(t *testing.T) {
	reg := telemetry.New()
	st, err := stack.Build(stack.Spec{
		Variant: "4lvl-nb",
		Per:     alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 14},
		Depot:   true,
	})
	if err != nil {
		t.Fatalf("stack.Build: %v", err)
	}
	bare := st.Top.Name()
	st, err = stack.Build(stack.Spec{
		Variant:   "4lvl-nb",
		Per:       alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 14},
		Depot:     true,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatalf("stack.Build with telemetry: %v", err)
	}
	if got := st.Top.Name(); got != bare {
		t.Errorf("probes changed the stack name: %q != %q", got, bare)
	}

	// Two samples' worth of allocations and frees at the top boundary.
	h := st.Top.NewHandle()
	var offs []uint64
	for i := 0; i < 2*telemetry.SampleInterval; i++ {
		if off, ok := h.Alloc(64); ok {
			offs = append(offs, off)
		}
	}
	for _, off := range offs {
		h.Free(off)
	}
	alloc.CloseHandle(h)

	var total uint64
	for _, ll := range reg.Latencies() {
		for _, op := range ll.Ops {
			total += op.Samples
		}
	}
	if total == 0 {
		t.Fatalf("no samples recorded at any boundary (interval %d, %d ops)", telemetry.SampleInterval, 2*len(offs))
	}
	boundaries := map[string]bool{}
	for _, ll := range reg.Latencies() {
		boundaries[ll.Layer] = true
	}
	for _, want := range []string{"backend", "frontend"} {
		if !boundaries[want] {
			t.Errorf("boundary %q missing from Latencies(); got %v", want, boundaries)
		}
	}
}
