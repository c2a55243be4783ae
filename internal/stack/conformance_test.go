package stack_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloctest"
	"repro/internal/multi"
	"repro/internal/stack"

	_ "repro/internal/bunch"
)

// instancesFor picks the largest instance count (up to want) whose share
// of total can still serve maxSize, mirroring the registry composites.
func instancesFor(want int, total, maxSize uint64) int {
	n := want
	for n > 1 && total/uint64(n) < maxSize {
		n /= 2
	}
	return n
}

// specBuilder adapts a Spec template to the conformance suite: the
// suite's (total, minSize, maxSize) describes the GLOBAL offset space,
// which multi specs split over their instances. A Mapped template keeps
// the router even at one instance (the mapped region binds to it).
func specBuilder(template stack.Spec, wantInstances int) alloctest.Builder {
	return func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator {
		t.Helper()
		s := template
		n := 1
		if wantInstances > 1 {
			n = instancesFor(wantInstances, total, maxSize)
		}
		switch {
		case n > 1:
			s.Instances = n
		case s.Mapped:
			s.Instances = 1
		default:
			s.Instances = 0
		}
		s.Per = alloc.Config{Total: total / uint64(n), MinSize: minSize, MaxSize: maxSize}
		st, err := stack.Build(s)
		if err != nil {
			t.Fatalf("stack.Build: %v", err)
		}
		return st.Top
	}
}

// The spec-built stacks that have no registry label. Each runs the
// conformance suite here and the differential walk in
// TestDifferentialSpecStacks.
var (
	// cachedMulti is the caching front-end stacked on a 4-instance router
	// — the composition the seed rejected outright (frontend.New failed
	// on Multi's missing ChunkSizer).
	cachedMulti = specBuilder(stack.Spec{Variant: "4lvl-nb", Depot: true}, 4)
	// multiMaterialized is a 4-instance router whose windows are backed
	// by mapped memory.
	multiMaterialized = specBuilder(stack.Spec{Variant: "4lvl-nb", Mapped: true}, 4)
	// fullStack is the complete production composition: caching
	// front-end + 4-instance router + mapped region.
	fullStack = specBuilder(stack.Spec{Variant: "4lvl-nb", Depot: true, Mapped: true}, 4)
	// fixedPolicyMulti pins every handle to instance 0 (the paper's
	// Figure 12 memory policy), so the router's fallback path serves
	// whatever instance 0 cannot.
	fixedPolicyMulti = specBuilder(stack.Spec{Variant: "4lvl-nb", Policy: multi.Fixed}, 4)
)

func TestConformanceCachedMulti(t *testing.T) { alloctest.RunBuilder(t, cachedMulti) }

func TestConformanceMultiMaterialized(t *testing.T) { alloctest.RunBuilder(t, multiMaterialized) }

func TestConformanceFullStack(t *testing.T) { alloctest.RunBuilder(t, fullStack) }

// TestConformanceRegistryComposites runs the suite over the composite
// variants registered for the benchmark harness, by name like any leaf.
func TestConformanceRegistryComposites(t *testing.T) {
	for _, name := range []string{
		"multi4+4lvl-nb",
		"elastic+multi+4lvl-nb",
		"mapped+elastic+multi+4lvl-nb",
		"slab+4lvl-nb", "slab+depot+multi4+4lvl-nb",
		"slab+mapped+elastic+multi+4lvl-nb",
	} {
		t.Run(name, func(t *testing.T) { alloctest.Run(t, name) })
	}
	// depot+multi4+4lvl-nb left the registry (the shipping stack puts the
	// slab over the front-end), but the suite keeps its case under the
	// label's name: the front-end over the 4-instance router that
	// slab+depot+multi4+4lvl-nb stands on, as cachedMulti builds it.
	t.Run("depot+multi4+4lvl-nb", func(t *testing.T) { alloctest.RunBuilder(t, cachedMulti) })
}

func TestConformanceFixedPolicyMulti(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-policy sweep skipped in -short")
	}
	alloctest.RunBuilder(t, fixedPolicyMulti)
}
