package main

import (
	"slices"
	"testing"
)

func TestTapesAreAFunctionOfTheSeed(t *testing.T) {
	a := genTape(7, 0, churnSlots, logUniform)
	b := genTape(7, 0, churnSlots, logUniform)
	if !slices.Equal(a, b) {
		t.Fatal("same seed and worker produced different tapes")
	}
	if slices.Equal(a, genTape(8, 0, churnSlots, logUniform)) {
		t.Fatal("a different seed produced the same tape")
	}
	if slices.Equal(a, genTape(7, 1, churnSlots, logUniform)) {
		t.Fatal("two workers share a tape")
	}
	for i := uint64(0); i < tapeLen; i++ {
		if s := a.size(i); s < 8 || s >= 1024 {
			t.Fatalf("entry %d: size %d outside [8, 1024)", i, s)
		}
		if a.slot(i) >= churnSlots {
			t.Fatalf("entry %d: slot %d", i, a.slot(i))
		}
	}
}

// At one worker nothing races, so every count the benchmark derives from a
// budgeted pass repeats exactly for a seed.
func TestOneWorkerCountsRepeatExactly(t *testing.T) {
	for _, wl := range []workload{churnSmall{}, batchSwing{}} {
		a, err := checkedPass(wl, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := checkedPass(wl, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: checked pass differs between identical runs: %+v vs %+v", wl.name(), a, b)
		}
		if x, y := bunchCallsPerOp(t, wl, 3), bunchCallsPerOp(t, wl, 3); x != y {
			t.Errorf("%s: bunch.calls_per_op %v vs %v", wl.name(), x, y)
		}
	}
	a, err := checkedPass(churnSmall{}, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := checkedPass(churnSmall{}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.reservedPerRequested == b.reservedPerRequested {
		t.Error("reserved_per_requested did not move with the seed")
	}
}

// bunchCallsPerOp runs a budgeted one-worker pass on the traced stack.
func bunchCallsPerOp(t *testing.T, wl workload, seed uint64) float64 {
	t.Helper()
	e, err := setUp(wl, 1, seed, tracedStack, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := takeSnapshot(e)
	_, budget := wl.budgets()
	res := e.measure(e.workers, 0, budget)
	after := takeSnapshot(e)
	if err := e.tearDown(); err != nil {
		t.Fatal(err)
	}
	var calls uint64
	for k := range after.per[layerBunch].calls {
		calls += after.per[layerBunch].calls[k] - before.per[layerBunch].calls[k]
	}
	calls += after.conv[layerBunch] - before.conv[layerBunch]
	return float64(calls) / float64(res.ops)
}
