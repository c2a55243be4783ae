package main

import (
	"testing"

	"repro/internal/alloc"
)

// With the shims removed, the hand composition must be the stack nbbs.New
// builds: same Name, same LayerStats labels, for every workload.
func TestComposedStackMatchesNbbsNew(t *testing.T) {
	for _, wl := range workloads {
		want, _, err := untracedStack(wl.spec())
		if err != nil {
			t.Fatal(err)
		}
		got, err := compose(wl.spec(), leafVariant, noWrap)
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != want.Name() {
			t.Errorf("%s: composed %q, nbbs.New %q", wl.name(), got.Name(), want.Name())
		}
		labels := func(ls []alloc.LayerStats) (out []string) {
			for _, l := range ls {
				out = append(out, l.Layer)
			}
			return out
		}
		g, w := labels(got.LayerStats()), labels(want.LayerStats())
		if len(g) != len(w) {
			t.Fatalf("%s: layers %v vs %v", wl.name(), g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s: layer %d is %q, nbbs.New has %q", wl.name(), i, g[i], w[i])
			}
		}
		// The shimmed composition keeps the same face.
		traced, tr, err := tracedStack(wl.spec())
		if err != nil {
			t.Fatal(err)
		}
		leafTracer.Store(nil)
		if traced.Name() != want.Name() || tr == nil {
			t.Errorf("%s: traced stack is %q", wl.name(), traced.Name())
		}
	}
}

// With a clock that ticks once per read, every span's self time is exact:
// the layers' self times must sum to the root spans' time with nothing
// lost or counted twice.
func TestSelfTimesSumToRootSpans(t *testing.T) {
	var now int64
	clock := func() int64 { now++; return now }
	tr := newTracer(clock, layerSlab)
	leafTracer.Store(tr)
	defer leafTracer.Store(nil)
	st, err := compose(shippingStack, tracedLeaf, tr.wrap)
	if err != nil {
		t.Fatal(err)
	}
	ctx := tr.newCtx(0)
	defer tr.enter(ctx)()
	tr.binding = ctx
	h := st.NewHandle()
	tr.binding = nil
	ctx.enabled = true

	// Small objects stay in the slab; 4 KiB chunks cross every boundary
	// down to the leaves, in batches.
	var offs []uint64
	for i := 0; i < 40*sampleEvery; i++ {
		size := uint64(16)
		if i%3 == 0 {
			size = 4096
		}
		off, ok := h.Alloc(size)
		if !ok {
			t.Fatal("alloc failed")
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		h.Free(off)
	}
	ctx.enabled = false

	var self selfTimes
	computeSelf(ctx.spans, spanCost{}, &self)
	var sum float64
	deepest := layerSlab
	for l, v := range self.self {
		sum += v
		if self.spans[l] > 0 {
			deepest = layerID(l)
		}
	}
	if self.rootOps == 0 || deepest != layerBunch {
		t.Fatalf("expected sampled ops reaching the leaves, got %d roots, deepest layer %s", self.rootOps, layerNames[deepest])
	}
	if sum != self.rootNs || self.clipped != 0 {
		t.Errorf("layer self times sum to %v, root spans to %v (%d clipped)", sum, self.rootNs, self.clipped)
	}
	for i, s := range ctx.spans {
		if s.parent >= int32(i) || s.end < s.start {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
		if s.parent >= 0 && ctx.spans[s.parent].op != s.op {
			t.Fatalf("span %d and its parent belong to different ops", i)
		}
	}
}
