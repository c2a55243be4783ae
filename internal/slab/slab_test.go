package slab_test

import (
	"sync"
	"testing"

	"repro/internal/alloc"
	_ "repro/internal/bunch" // registers the 4lvl-nb leaf
	"repro/internal/slab"
)

func build(t *testing.T, cfg alloc.Config) alloc.Allocator {
	t.Helper()
	leaf, err := alloc.Build("4lvl-nb", cfg)
	if err != nil {
		t.Fatalf("Build(4lvl-nb): %v", err)
	}
	return leaf
}

func newSlab(t *testing.T, cfg alloc.Config, cutoff uint64) (*slab.Allocator, alloc.Allocator) {
	t.Helper()
	leaf := build(t, cfg)
	sl, err := slab.New(leaf, cutoff)
	if err != nil {
		t.Fatalf("slab.New: %v", err)
	}
	return sl, leaf
}

var cfg = alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16}

// TestClassTable pins the class table: every power of two and half-step
// in [MinSize, cutoff] that is a multiple of MinSize, and the rounding
// each request size maps to.
func TestClassTable(t *testing.T) {
	sl, _ := newSlab(t, cfg, 0)
	if got, want := sl.Cutoff(), uint64(2048); got != want {
		t.Fatalf("Cutoff() = %d, want %d", got, want)
	}
	cases := []struct {
		size, class uint64
	}{
		{1, 64}, {64, 64}, {65, 128}, {128, 128}, {129, 192}, {192, 192},
		{193, 256}, {256, 256}, {257, 384}, {384, 384}, {385, 512},
		{512, 512}, {513, 768}, {1000, 1024}, {1025, 1536}, {1537, 2048},
		{2047, 2048}, {2048, 2048},
	}
	for _, c := range cases {
		got, ok := sl.ReservedFor(c.size)
		if !ok || got != c.class {
			t.Errorf("ReservedFor(%d) = %d,%v, want %d,true", c.size, got, ok, c.class)
		}
	}
	if _, ok := sl.ReservedFor(2049); ok {
		t.Error("ReservedFor(cutoff+1) should pass through")
	}
}

// TestCutoffClamp verifies the cutoff is clamped to half the run chunk
// so every run holds at least two objects.
func TestCutoffClamp(t *testing.T) {
	sl, _ := newSlab(t, cfg, 1<<20)
	if rc := sl.RunBytes(); sl.Cutoff() > rc/2 {
		t.Fatalf("cutoff %d exceeds half the run chunk %d", sl.Cutoff(), rc)
	}
}

// TestTransparentMode covers geometries where no class fits (MinSize
// above half the run chunk): the layer must pass everything through and
// still satisfy the whole contract.
func TestTransparentMode(t *testing.T) {
	sl, _ := newSlab(t, alloc.Config{Total: 1 << 20, MinSize: 4096, MaxSize: 1 << 16}, 0)
	if sl.Cutoff() != 0 {
		t.Fatalf("Cutoff() = %d, want 0 (transparent)", sl.Cutoff())
	}
	h := sl.NewHandle()
	off, ok := h.Alloc(100)
	if !ok {
		t.Fatal("transparent Alloc failed")
	}
	if got := sl.ChunkSize(off); got != 4096 {
		t.Fatalf("ChunkSize = %d, want the buddy rounding 4096", got)
	}
	h.Free(off)
	if s := sl.Stats(); s.Allocs != 1 || s.Frees != 1 {
		t.Fatalf("stats = %+v, want 1 alloc / 1 free", s)
	}
}

// TestCutoffBoundary exercises cutoff and cutoff+1: the first is the
// largest class, the second passes through to the buddy's rounding.
func TestCutoffBoundary(t *testing.T) {
	sl, _ := newSlab(t, cfg, 0)
	h := sl.NewHandle()
	at, ok := h.Alloc(sl.Cutoff())
	if !ok {
		t.Fatal("Alloc(cutoff) failed")
	}
	if got := sl.ChunkSize(at); got != sl.Cutoff() {
		t.Fatalf("ChunkSize(cutoff alloc) = %d, want %d", got, sl.Cutoff())
	}
	over, ok := h.Alloc(sl.Cutoff() + 1)
	if !ok {
		t.Fatal("Alloc(cutoff+1) failed")
	}
	if got := sl.ChunkSize(over); got != 2*sl.Cutoff() {
		t.Fatalf("ChunkSize(cutoff+1 alloc) = %d, want the buddy rounding %d", got, 2*sl.Cutoff())
	}
	h.Free(at)
	h.Free(over)
}

// TestDoubleFreePanics pins the run-slot allocated bit: freeing twice
// panics at the second call.
func TestDoubleFreePanics(t *testing.T) {
	sl, _ := newSlab(t, cfg, 0)
	off, ok := sl.Alloc(64)
	if !ok {
		t.Fatal("Alloc failed")
	}
	sl.Free(off)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	sl.Free(off)
}

// TestForeignFreePanics pins offset validation: an offset inside a run
// window that is not on a class boundary panics.
func TestForeignFreePanics(t *testing.T) {
	sl, _ := newSlab(t, cfg, 0)
	off, ok := sl.Alloc(64)
	if !ok {
		t.Fatal("Alloc failed")
	}
	_ = off
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free did not panic")
		}
	}()
	sl.Free(off + 1)
}

// TestChunkSizeFreedPanics: ChunkSize of a freed slab slot panics like
// every layer's not-allocated contract.
func TestChunkSizeFreedPanics(t *testing.T) {
	sl, _ := newSlab(t, cfg, 0)
	off, ok := sl.Alloc(64)
	if !ok {
		t.Fatal("Alloc failed")
	}
	sl.Free(off)
	defer func() {
		if recover() == nil {
			t.Fatal("ChunkSize of freed offset did not panic")
		}
	}()
	sl.ChunkSize(off)
}

// TestFragGaugeBelowBuddyWaste pins the headline effect: for request
// sizes between classes, slab internal fragmentation is strictly below
// the buddy's power-of-two rounding waste.
func TestFragGaugeBelowBuddyWaste(t *testing.T) {
	sl, _ := newSlab(t, cfg, 0)
	h := sl.NewHandle()
	const n, size = 16, 160 // class 192 vs buddy 256
	offs := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		off, ok := h.Alloc(size)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		offs = append(offs, off)
	}
	slabWaste := uint64(n * (192 - size))
	buddyWaste := uint64(n * (256 - size))
	if got := sl.FragBytes(); got != slabWaste {
		t.Fatalf("FragBytes() = %d, want %d", got, slabWaste)
	}
	if sl.FragBytes() >= buddyWaste {
		t.Fatalf("slab frag %d not below buddy rounding waste %d", sl.FragBytes(), buddyWaste)
	}
	for _, off := range offs {
		h.Free(off)
	}
	if got := sl.FragBytes(); got != 0 {
		t.Fatalf("FragBytes() after freeing all = %d, want 0", got)
	}
}

// TestScrubKeepsPartialRuns: Scrub releases fully-free runs but must
// leave live objects in partial runs untouched and addressable.
func TestScrubKeepsPartialRuns(t *testing.T) {
	sl, leaf := newSlab(t, cfg, 0)
	h := sl.NewHandle()
	keep, ok := h.Alloc(64)
	if !ok {
		t.Fatal("Alloc failed")
	}
	gone := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		off, ok := h.Alloc(1024)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		gone = append(gone, off)
	}
	for _, off := range gone {
		h.Free(off)
	}
	sl.Scrub()
	// The 1024-class runs were fully free: released. The 64-class run
	// still holds keep: retained, and the object still resolves.
	if got := sl.ChunkSize(keep); got != 64 {
		t.Fatalf("ChunkSize(keep) after Scrub = %d, want 64", got)
	}
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 1 {
		t.Fatalf("leaf live chunks after Scrub = %d, want 1 (the partial run)", live)
	}
	h.Free(keep)
	sl.Scrub()
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 0 {
		t.Fatalf("leaf live chunks after final Scrub = %d, want 0", live)
	}
}

// TestBatchRoundTrip: class-sized batches come from the central store
// and return to their runs; a Scrub then releases every backing chunk.
func TestBatchRoundTrip(t *testing.T) {
	sl, leaf := newSlab(t, cfg, 0)
	h := sl.NewHandle()
	out := alloc.HandleAllocBatch(h, 256, 40)
	if len(out) != 40 {
		t.Fatalf("AllocBatch returned %d offsets, want 40", len(out))
	}
	seen := map[uint64]bool{}
	for _, off := range out {
		if seen[off] {
			t.Fatalf("offset %d handed out twice", off)
		}
		seen[off] = true
		if got := sl.ChunkSize(off); got != 256 {
			t.Fatalf("ChunkSize(%d) = %d, want 256", off, got)
		}
	}
	alloc.HandleFreeBatch(h, out)
	sl.Scrub()
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 0 {
		t.Fatalf("leaf live chunks after batch round-trip + Scrub = %d, want 0", live)
	}
}

// TestDrainFence is the slab half of the elastic-retirement fence: a
// worker parks objects in its magazine, DrainRange arms the fence, the
// worker's next (unrelated) operation flushes the magazine, and the next
// DrainRange — as the manager's Poll would issue — releases the now
// fully-free run. No Scrub.
func TestDrainFence(t *testing.T) {
	sl, leaf := newSlab(t, cfg, 0)
	span := sl.OffsetSpan()
	h := sl.NewHandle()
	offs := make([]uint64, 0, 10)
	for i := 0; i < 10; i++ {
		off, ok := h.Alloc(64)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		h.Free(off) // parked in the magazine
	}
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 1 {
		t.Fatalf("leaf live chunks with parked magazine = %d, want 1", live)
	}
	sl.DrainRange(0, span)
	// The run is pinned by magazine-held objects; the window release
	// alone cannot free it.
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 1 {
		t.Fatalf("leaf live chunks after DrainRange = %d, want 1 (magazine pins the run)", live)
	}
	// One unrelated operation trips the fence.
	pass, ok := h.Alloc(1 << 15)
	if !ok {
		t.Fatal("pass-through alloc failed")
	}
	sl.DrainRange(0, span) // as the next Poll would
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 1 {
		t.Fatalf("leaf live chunks after fence flush + DrainRange = %d, want 1 (just the pass-through)", live)
	}
	var flushes uint64
	for _, ls := range sl.LayerStats() {
		if ls.Layer == "slab" {
			flushes = ls.Extra["slab_drain_flushes"]
			break
		}
	}
	if flushes == 0 {
		t.Fatal("slab_drain_flushes = 0, want at least one fence-forced flush")
	}
	h.Free(pass)
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 0 {
		t.Fatalf("leaf live chunks at end = %d, want 0", live)
	}
}

// TestHandleFallthroughProvisionsOnce pins the cost of a handle's
// fallthrough: on a leaf with one live 8 B chunk in every 4 KiB run
// block, a handle's Alloc(64) tries to provision a run twice (take's
// retry after releasing the empty runs) and then falls through to its
// inner handle, without a second take.
func TestHandleFallthroughProvisionsOnce(t *testing.T) {
	sl, leaf := newSlab(t, alloc.Config{Total: 1 << 14, MinSize: 8, MaxSize: 1 << 14}, 0)
	if sl.RunBytes() != 1<<12 {
		t.Fatalf("RunBytes() = %d, want 4096", sl.RunBytes())
	}
	var all, pinned []uint64
	for off, ok := leaf.Alloc(8); ok; off, ok = leaf.Alloc(8) {
		all = append(all, off)
	}
	for _, off := range all {
		if off%(1<<12) == 0 {
			pinned = append(pinned, off)
		} else {
			leaf.Free(off)
		}
	}
	if len(pinned) != 4 {
		t.Fatalf("pinned %d run blocks, want 4", len(pinned))
	}
	fails := leaf.Stats().AllocFails
	h := sl.NewHandle()
	off, ok := h.Alloc(64)
	if !ok {
		t.Fatal("Alloc(64) did not fall through to the leaf")
	}
	if d := leaf.Stats().AllocFails - fails; d != 2 {
		t.Fatalf("leaf saw %d failed run provisions, want 2", d)
	}
	h.Free(off)
	for _, off := range pinned {
		leaf.Free(off)
	}
}

// TestConcurrentChurn hammers refill/spill and run provisioning from
// many handles at once (run it with -race), with a concurrent DrainRange
// arming the fence mid-churn, then checks global accounting.
func TestConcurrentChurn(t *testing.T) {
	sl, leaf := newSlab(t, alloc.Config{Total: 1 << 22, MinSize: 64, MaxSize: 1 << 16}, 0)
	const workers = 8
	const rounds = 300
	sizes := []uint64{64, 96, 160, 1024, 2048, 4096}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				sl.DrainRange(0, sl.OffsetSpan()/2)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := sl.NewHandle()
			var held []uint64
			for r := 0; r < rounds; r++ {
				size := sizes[(w+r)%len(sizes)]
				if off, ok := h.Alloc(size); ok {
					held = append(held, off)
				}
				if len(held) > 32 {
					h.Free(held[0])
					held = held[1:]
				}
			}
			for _, off := range held {
				h.Free(off)
			}
			alloc.CloseHandle(h)
		}(w)
	}
	wg.Wait()
	close(stop)
	s := sl.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("slab allocs %d != frees %d at quiescence", s.Allocs, s.Frees)
	}
	if got := sl.FragBytes(); got != 0 {
		t.Fatalf("FragBytes() at quiescence = %d, want 0", got)
	}
	sl.Scrub()
	if live := leaf.Stats().Allocs - leaf.Stats().Frees; live != 0 {
		t.Fatalf("leaf live chunks after Scrub = %d, want 0", live)
	}
}

// TestClassInfos checks the introspection table against known traffic.
func TestClassInfos(t *testing.T) {
	sl, _ := newSlab(t, cfg, 0)
	off, ok := sl.Alloc(100) // class 128
	if !ok {
		t.Fatal("Alloc failed")
	}
	var found bool
	for _, ci := range sl.ClassInfos() {
		if ci.Size == 128 {
			found = true
			if ci.Live != 1 {
				t.Fatalf("class 128 Live = %d, want 1", ci.Live)
			}
			if ci.Runs != 1 {
				t.Fatalf("class 128 Runs = %d, want 1", ci.Runs)
			}
			if uint64(ci.ObjsPerRun) != sl.RunBytes()/128 {
				t.Fatalf("class 128 ObjsPerRun = %d, want %d", ci.ObjsPerRun, sl.RunBytes()/128)
			}
		} else if ci.Live != 0 {
			t.Fatalf("class %d Live = %d, want 0", ci.Size, ci.Live)
		}
	}
	if !found {
		t.Fatal("class 128 missing from ClassInfos")
	}
	sl.Free(off)
}
