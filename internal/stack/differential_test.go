package stack_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloctest"
	"repro/internal/elastic"
	"repro/internal/stack"

	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
)

// TestDifferentialRegistryComposites fuzzes every registry composite —
// the router, the slab stacks, and the elastic
// composites (whose runs additionally interleave Poll-driven
// grow/drain/retire) — against the map-based oracle: random single/batched alloc/free
// sequences with interleaved quiescent Scrubs, checking no
// double-hand-out, exact ChunkSize reporting, and per-layer stats
// reconciliation after the drain.
func TestDifferentialRegistryComposites(t *testing.T) {
	composites := []string{
		"multi4+4lvl-nb",
		"elastic+multi+4lvl-nb",
		"mapped+elastic+multi+4lvl-nb",
		"slab+4lvl-nb",
		"slab+depot+multi4+4lvl-nb",
		"slab+mapped+elastic+multi+4lvl-nb",
	}
	for _, name := range composites {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			alloctest.RunDifferential(t, func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator {
				t.Helper()
				a, err := alloc.Build(name, alloc.Config{Total: total, MinSize: minSize, MaxSize: maxSize})
				if err != nil {
					t.Fatalf("Build(%q): %v", name, err)
				}
				return a
			})
		})
	}
	// The retired depot+multi4+4lvl-nb label keeps its walk, built from
	// its Spec as in TestConformanceRegistryComposites.
	t.Run("depot+multi4+4lvl-nb", func(t *testing.T) {
		t.Parallel()
		alloctest.RunDifferential(t, cachedMulti)
	})
}

// TestDifferentialDepotElastic fuzzes the full elastic cooperation path:
// the magazine depot stacked over the capacity manager, so the
// interleaved Shrink/Poll steps exercise the depot drain hook — parked
// magazines overlapping a draining instance's window must go back down
// for its live count to reach zero.
func TestDifferentialDepotElastic(t *testing.T) {
	t.Parallel()
	alloctest.RunDifferential(t, func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator {
		t.Helper()
		n := instancesFor(4, total, maxSize)
		st, err := stack.Build(stack.Spec{
			Variant:   "4lvl-nb",
			Per:       alloc.Config{Total: total / uint64(n), MinSize: minSize, MaxSize: maxSize},
			Instances: n,
			Elastic:   &elastic.Config{MinInstances: 1, MaxInstances: 2 * n},
			Depot:     true,
		})
		if err != nil {
			t.Fatalf("stack.Build: %v", err)
		}
		return st.Top
	})
}

// TestDifferentialSpecStacks walks the oracle over the spec-built stacks
// that run the conformance suite without a registry label.
func TestDifferentialSpecStacks(t *testing.T) {
	for _, c := range []struct {
		name  string
		build alloctest.Builder
	}{
		{"CachedMulti", cachedMulti},
		{"MultiMaterialized", multiMaterialized},
		{"FullStack", fullStack},
		{"FixedPolicyMulti", fixedPolicyMulti},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			alloctest.RunDifferential(t, c.build)
		})
	}
}

// TestDifferentialLeaves anchors the oracle against every leaf variant —
// the non-blocking and spin-locked bunch trees and the two baselines — so
// a divergence in a composite run isolates to the layers.
func TestDifferentialLeaves(t *testing.T) {
	for _, name := range []string{"1lvl-nb", "4lvl-nb", "1lvl-sl", "4lvl-sl", "buddy-sl", "linux-buddy"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			alloctest.RunDifferential(t, func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator {
				t.Helper()
				a, err := alloc.Build(name, alloc.Config{Total: total, MinSize: minSize, MaxSize: maxSize})
				if err != nil {
					t.Fatalf("Build(%q): %v", name, err)
				}
				return a
			})
		})
	}
}
