package stack_test

import (
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/frontend"
	"repro/internal/stack"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
)

var per = alloc.Config{Total: 1 << 18, MinSize: 64, MaxSize: 1 << 14}

// TestStatsReconcile drives a caching + multi stack and checks that the
// per-layer counters reconcile: every front-end allocation was served
// either by a magazine hit or by a depot miss's batch refill, every
// back-end allocation arrived in such a refill, and the routing layer saw
// exactly the back-end's traffic.
func TestStatsReconcile(t *testing.T) {
	st, err := stack.Build(stack.Spec{
		Variant: "4lvl-nb", Per: per,
		Instances: 4,
		Depot:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := st.Top.NewHandle()
			var live []uint64
			for i := 0; i < 8000; i++ {
				if off, ok := h.Alloc(64 << (i % 4)); ok {
					live = append(live, off)
				}
				if len(live) > 12 {
					h.Free(live[0])
					live = live[1:]
				}
			}
			for _, off := range live {
				h.Free(off)
			}
		}()
	}
	wg.Wait()

	front := st.Frontend.Stats()
	cache := st.Frontend.CacheTotals()
	depot := st.Frontend.Depot().Stats()
	router := st.Multi.Stats() // aggregated instance (back-end) counters

	// Every alloc attempt that reached the magazines either hit or missed.
	if got := cache.Hits + cache.Misses; got != front.Allocs+front.AllocFails {
		t.Fatalf("Hits+Misses = %d, want front-end attempts %d",
			got, front.Allocs+front.AllocFails)
	}
	// Front-end successes decompose into magazine serves (depot exchanges
	// included) + one chunk of each batch refill.
	if front.Allocs != cache.Hits+depot.Refills {
		t.Fatalf("front-end Allocs %d != Hits %d + batch refills %d",
			front.Allocs, cache.Hits, depot.Refills)
	}
	// The back-end is reached only by those refills.
	if router.Allocs != depot.RefilledChunks {
		t.Fatalf("back-end Allocs %d != refilled chunks %d", router.Allocs, depot.RefilledChunks)
	}
	// What the magazines and the depot did not absorb or still hold went
	// back down: back-end frees are the drains plus flushes.
	st.Scrub() // flush magazines, drain the depot
	routerAfter := st.Multi.Stats()
	if routerAfter.Allocs != routerAfter.Frees {
		t.Fatalf("back-end unbalanced after flush: %d allocs vs %d frees",
			routerAfter.Allocs, routerAfter.Frees)
	}
	// The routing layer's handle-level view matches the instance fleet.
	layers := st.LayerStats()
	if len(layers) != 3 { // depot, multi, leaf fleet
		t.Fatalf("LayerStats = %d entries, want 3", len(layers))
	}
	routing := layers[1].Stats
	if routing.Allocs != router.Allocs {
		t.Fatalf("routing-layer Allocs %d != instance-fleet Allocs %d",
			routing.Allocs, router.Allocs)
	}
}

// TestScrubDrainsParkedMagazines: a worker that frees more chunks than
// its magazine holds parks full magazines in the depot, and Scrub must
// hand them back down, so every layer ends balanced and the depot empty.
func TestScrubDrainsParkedMagazines(t *testing.T) {
	st, err := stack.Build(stack.Spec{Variant: "4lvl-nb", Per: per, Depot: true})
	if err != nil {
		t.Fatal(err)
	}
	h := st.Top.NewHandle()
	var live []uint64
	for i := 0; i < 2*frontend.DefaultMagazine; i++ {
		off, ok := h.Alloc(64)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		live = append(live, off)
	}
	for _, off := range live {
		h.Free(off)
	}
	if st.Frontend.Depot().Retained() == 0 {
		t.Fatalf("no magazine parked in the depot after %d frees into a %d-chunk magazine", len(live), frontend.DefaultMagazine)
	}
	st.Scrub()
	if n := st.Frontend.Depot().Retained(); n != 0 {
		t.Fatalf("depot retains %d chunks after Scrub", n)
	}
	for _, l := range st.LayerStats() {
		if l.Stats.Allocs != l.Stats.Frees {
			t.Errorf("layer %q unbalanced after Scrub: %d allocs vs %d frees", l.Layer, l.Stats.Allocs, l.Stats.Frees)
		}
	}
}

// TestSpanThroughLayers checks OffsetSpan survives arbitrary stacking.
func TestSpanThroughLayers(t *testing.T) {
	st, err := stack.Build(stack.Spec{
		Variant: "4lvl-nb", Per: per,
		Instances: 4,
		Depot:     true,
		Mapped:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * per.Total
	if got := alloc.SpanOf(st.Top); got != want {
		t.Fatalf("SpanOf(top) = %d, want %d", got, want)
	}
	if st.Top.Name() != "depot+mapped+multi[4x 4lvl-nb]" {
		t.Fatalf("Name = %q", st.Top.Name())
	}
	if len(st.LayerStats()) != 3 {
		t.Fatalf("LayerStats entries = %d, want 3", len(st.LayerStats()))
	}
}

// TestCanScrub reports leaf scrubbability through any stack.
func TestCanScrub(t *testing.T) {
	for variant, want := range map[string]bool{"4lvl-nb": true, "buddy-sl": false} {
		st, err := stack.Build(stack.Spec{
			Variant: variant, Per: per, Instances: 2, Depot: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.CanScrub(); got != want {
			t.Errorf("CanScrub(%s stack) = %v, want %v", variant, got, want)
		}
		if got := st.Scrub(); got != want {
			t.Errorf("Scrub(%s stack) = %v, want %v", variant, got, want)
		}
	}
}

// TestConvenienceHandleLeakFixed regresses the Multi.Alloc transient
// handle leak: the convenience path must not register a fresh set of
// sub-handles on every call. Sub-handle registration shows up as
// unbounded growth of per-instance aggregated stats structures; we probe
// it through memory-stable repeated convenience calls.
func TestConvenienceHandleLeakFixed(t *testing.T) {
	st, err := stack.Build(stack.Spec{Variant: "4lvl-nb", Per: per, Instances: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := st.Multi
	const n = 5000
	for i := 0; i < n; i++ {
		off, ok := m.Alloc(64)
		if !ok {
			t.Fatal("alloc failed")
		}
		m.Free(off)
	}
	// The seed built a fresh handle per convenience call — n*2 handles,
	// each registering sub-handles on every instance forever. The pooled
	// path reuses a few.
	if got := m.Handles(); got > 8 {
		t.Fatalf("%d handles registered after %d sequential convenience ops, want a small pooled set", got, n)
	}
	routing := m.LayerStats()[0].Stats
	if routing.Allocs != n || routing.Frees != n {
		t.Fatalf("routing stats = %d/%d, want %d/%d (pooled handle lost ops)",
			routing.Allocs, routing.Frees, n, n)
	}
}
