package frontend_test

import (
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/frontend"

	_ "repro/internal/bunch"
	_ "repro/internal/linuxbuddy"
)

func backend(t *testing.T, variant string) alloc.Allocator {
	t.Helper()
	a, err := alloc.Build(variant, alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMagazineHit(t *testing.T) {
	fe, err := frontend.New(backend(t, "1lvl-nb"), 8)
	if err != nil {
		t.Fatal(err)
	}
	h := fe.NewHandle().(*frontend.Handle)
	off, ok := h.Alloc(128)
	if !ok {
		t.Fatal("alloc failed")
	}
	h.Free(off) // parks in the magazine
	off2, ok := h.Alloc(128)
	if !ok || off2 != off {
		t.Fatalf("magazine did not serve the parked chunk: got %d want %d", off2, off)
	}
	cs := h.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Refills != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}
	h.Free(off2)
	h.Flush()
	if h.Cached() != 0 {
		t.Fatalf("%d chunks cached after Flush", h.Cached())
	}
	// After flushing, the back-end must see the chunk as free again.
	s := fe.Unwrap().Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("back-end allocs/frees = %d/%d after flush", s.Allocs, s.Frees)
	}
}

func TestSizeClassSeparation(t *testing.T) {
	fe, err := frontend.New(backend(t, "4lvl-nb"), 8)
	if err != nil {
		t.Fatal(err)
	}
	h := fe.NewHandle().(*frontend.Handle)
	small, _ := h.Alloc(64)
	big, _ := h.Alloc(4096)
	h.Free(small)
	h.Free(big)
	// A small request must not be served with the parked big chunk.
	got, ok := h.Alloc(64)
	if !ok || got != small {
		t.Fatalf("small class served %d, want parked %d", got, small)
	}
	got2, ok := h.Alloc(4096)
	if !ok || got2 != big {
		t.Fatalf("big class served %d, want parked %d", got2, big)
	}
	h.Free(got)
	h.Free(got2)
	h.Flush()
}

// TestSpillOnOverflow: a magazine never grows past its capacity, and once
// the depot holds its capacity of full magazines, further overflow drains
// whole magazines to the back-end.
func TestSpillOnOverflow(t *testing.T) {
	const mag = 4
	fe, err := frontend.New(backend(t, "1lvl-nb"), mag, frontend.WithDepot(1))
	if err != nil {
		t.Fatal(err)
	}
	h := fe.NewHandle().(*frontend.Handle)
	var offs []uint64
	for i := 0; i < mag*3; i++ {
		off, ok := h.Alloc(64)
		if !ok {
			t.Fatal("alloc failed")
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		h.Free(off)
	}
	cs := h.CacheStats()
	if cs.Spills == 0 {
		t.Fatal("no spills after overflowing the magazine")
	}
	if h.Cached() > mag {
		t.Fatalf("magazine holds %d chunks, cap %d", h.Cached(), mag)
	}
	if got := fe.Depot().Retained(); got != mag {
		t.Fatalf("depot retains %d chunks, want one full magazine (%d)", got, mag)
	}
	fe.Scrub()
	s := fe.Unwrap().Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("back-end leaked: %d allocs vs %d frees", s.Allocs, s.Frees)
	}
}

func TestCrossHandleFree(t *testing.T) {
	// A chunk allocated through one handle and freed through another must
	// land in the second handle's magazine of the right class.
	fe, err := frontend.New(backend(t, "linux-buddy"), 8)
	if err != nil {
		t.Fatal(err)
	}
	h1 := fe.NewHandle().(*frontend.Handle)
	h2 := fe.NewHandle().(*frontend.Handle)
	off, ok := h1.Alloc(256)
	if !ok {
		t.Fatal("alloc failed")
	}
	h2.Free(off)
	got, ok := h2.Alloc(256)
	if !ok || got != off {
		t.Fatalf("h2 magazine served %d, want %d", got, off)
	}
	h2.Free(got)
	h1.Flush()
	h2.Flush()
}

func TestOversizeRejected(t *testing.T) {
	fe, err := frontend.New(backend(t, "1lvl-nb"), 8)
	if err != nil {
		t.Fatal(err)
	}
	h := fe.NewHandle().(*frontend.Handle)
	if _, ok := h.Alloc(1 << 17); ok {
		t.Fatal("oversize alloc succeeded")
	}
}

func TestConcurrentCachedWorkers(t *testing.T) {
	fe, err := frontend.New(backend(t, "4lvl-nb"), 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := fe.NewHandle().(*frontend.Handle)
			defer h.Flush()
			var live []uint64
			for i := 0; i < 5000; i++ {
				if off, ok := h.Alloc(64 << (i % 4)); ok {
					live = append(live, off)
				}
				if len(live) > 8 {
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
	fe.Scrub() // the depot still parks the magazines workers overflowed
	s := fe.Unwrap().Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("back-end leaked under concurrency: %d allocs vs %d frees", s.Allocs, s.Frees)
	}
}

func TestPassThroughConvenience(t *testing.T) {
	fe, err := frontend.New(backend(t, "1lvl-nb"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Name() != "depot+1lvl-nb" {
		t.Fatalf("Name = %q", fe.Name())
	}
	off, ok := fe.Alloc(64)
	if !ok {
		t.Fatal("pass-through alloc failed")
	}
	fe.Free(off)
	if fe.Geometry().Total != 1<<20 {
		t.Fatal("geometry not forwarded")
	}
	s := fe.Stats()
	if s.Allocs != 1 || s.Frees != 1 {
		t.Fatalf("convenience ops not counted at the layer: %+v", s)
	}
}

func TestChunkSizeForwarded(t *testing.T) {
	fe, err := frontend.New(backend(t, "4lvl-nb"), 8)
	if err != nil {
		t.Fatal(err)
	}
	off, ok := fe.Alloc(100)
	if !ok {
		t.Fatal("alloc failed")
	}
	if got := fe.ChunkSize(off); got != 128 {
		t.Fatalf("ChunkSize = %d, want 128", got)
	}
	fe.Free(off)
}

// TestScrubFlushesMagazines: the layer's Scrub must return every
// magazine-parked chunk to the back-end (quiescent-only maintenance),
// so a drained stack is genuinely drained.
func TestScrubFlushesMagazines(t *testing.T) {
	fe, err := frontend.New(backend(t, "4lvl-nb"), 8)
	if err != nil {
		t.Fatal(err)
	}
	h := fe.NewHandle().(*frontend.Handle)
	off, ok := h.Alloc(64)
	if !ok {
		t.Fatal("alloc failed")
	}
	h.Free(off) // parked, still allocated in the back-end
	s := fe.Unwrap().Stats()
	if s.Allocs == s.Frees {
		t.Fatal("test premise broken: parked chunk should still be live in the back-end")
	}
	fe.Scrub()
	if h.Cached() != 0 {
		t.Fatalf("%d chunks still cached after Scrub", h.Cached())
	}
	s = fe.Unwrap().Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("back-end unbalanced after Scrub: %d/%d", s.Allocs, s.Frees)
	}
}

func TestCacheTotalsAggregate(t *testing.T) {
	fe, err := frontend.New(backend(t, "4lvl-nb"), 8)
	if err != nil {
		t.Fatal(err)
	}
	h1 := fe.NewHandle().(*frontend.Handle)
	h2 := fe.NewHandle().(*frontend.Handle)
	for _, h := range []*frontend.Handle{h1, h2} {
		off, _ := h.Alloc(64)
		h.Free(off)
		off, _ = h.Alloc(64) // hit
		h.Free(off)
	}
	totals := fe.CacheTotals()
	if totals.Hits != 2 || totals.Misses != 2 {
		t.Fatalf("CacheTotals = %+v, want 2 hits / 2 misses", totals)
	}
	h1.Flush()
	h2.Flush()
}
