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
// per-layer counters reconcile: every front-end allocation attempt was a
// magazine hit or a miss's batch refill, every back-end allocation
// arrived in such a refill, every back-end free was a drained or flushed
// magazine chunk, and the routing layer saw exactly the back-end's
// traffic.
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
	router := st.Multi.Stats() // aggregated instance (back-end) counters

	// Every alloc attempt that reached the magazines either hit or missed.
	if got := cache.Hits + cache.Misses; got != front.Allocs+front.AllocFails {
		t.Fatalf("Hits+Misses = %d, want front-end attempts %d",
			got, front.Allocs+front.AllocFails)
	}
	// The back-end is reached only by the successful refills, each of at
	// most half a magazine.
	refills := cache.Misses - front.AllocFails
	if router.Allocs < refills || router.Allocs > refills*frontend.DefaultMagazine/2 {
		t.Fatalf("back-end Allocs %d outside [%d, %d] for %d refills",
			router.Allocs, refills, refills*frontend.DefaultMagazine/2, refills)
	}
	// Back-end frees are exactly the chunks drained from full magazines.
	if router.Frees != cache.Spills {
		t.Fatalf("back-end Frees %d != drained chunks %d", router.Frees, cache.Spills)
	}
	// What the magazines still hold goes down on Scrub, as flushes.
	st.Scrub()
	routerAfter := st.Multi.Stats()
	if routerAfter.Allocs != routerAfter.Frees || routerAfter.Frees != st.Frontend.CacheTotals().Spills {
		t.Fatalf("back-end after flush: %d allocs, %d frees, %d spills",
			routerAfter.Allocs, routerAfter.Frees, st.Frontend.CacheTotals().Spills)
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
// its magazine holds drains one whole magazine and keeps the next one
// parked, and Scrub must hand that one back down, so every layer ends
// balanced and the magazines empty.
func TestScrubDrainsParkedMagazines(t *testing.T) {
	st, err := stack.Build(stack.Spec{Variant: "4lvl-nb", Per: per, Depot: true})
	if err != nil {
		t.Fatal(err)
	}
	h := st.Top.NewHandle().(*frontend.Handle)
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
	if h.Cached() == 0 || h.CacheStats().Spills == 0 {
		t.Fatalf("%d frees into a %d-chunk magazine: %d cached, %d drained", len(live), frontend.DefaultMagazine, h.Cached(), h.CacheStats().Spills)
	}
	st.Scrub()
	if n := h.Cached(); n != 0 {
		t.Fatalf("magazines hold %d chunks after Scrub", n)
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
