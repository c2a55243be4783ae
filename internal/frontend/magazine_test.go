package frontend_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alloc"
	"repro/internal/frontend"
	"repro/internal/multi"
)

// routedFrontend builds the front-end over a 4-instance router of
// 4lvl-nb leaves — the production composition.
func routedFrontend(t *testing.T, magCap int) (*frontend.Allocator, *multi.Multi) {
	t.Helper()
	m, err := multi.New("4lvl-nb", 4, alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 14}, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := frontend.New(m, magCap)
	if err != nil {
		t.Fatal(err)
	}
	return fe, m
}

// TestDepotBatchRefillAndDrain checks both back-end crossings: a miss
// refills the magazine with one batch of half a magazine, and a free into
// a full magazine drains the whole magazine down in one batch first.
func TestDepotBatchRefillAndDrain(t *testing.T) {
	const magCap = 8
	fe, m := routedFrontend(t, magCap)
	type event struct {
		name     string
		cls, got uint64
	}
	var events []event
	fe.SetEventSink(func(name string, a, b uint64) { events = append(events, event{name, a, b}) })
	h := fe.NewHandle().(*frontend.Handle)

	// Cold start: the first allocation is a miss and refills in one batch.
	offs := make([]uint64, 0, magCap+1)
	off, ok := h.Alloc(128)
	if !ok {
		t.Fatal("alloc failed")
	}
	offs = append(offs, off)
	if cs := h.CacheStats(); cs.Misses != 1 || cs.Hits != 0 {
		t.Fatalf("cold alloc: cache stats %+v, want one miss", cs)
	}
	if got := m.Stats().Allocs; got != magCap/2 {
		t.Fatalf("back-end served %d chunks, want one refill of %d", got, magCap/2)
	}
	if h.Cached() != magCap/2-1 {
		t.Fatalf("magazine holds %d chunks, want refill-1 = %d", h.Cached(), magCap/2-1)
	}
	if len(events) != 1 || events[0].name != "refill" || events[0].got != magCap/2 {
		t.Fatalf("events after the cold refill = %+v, want one refill of %d", events, magCap/2)
	}
	cls := events[0].cls

	// Fill the magazine to capacity with frees; the back-end sees none.
	for len(offs) < magCap+1 {
		off, ok := h.Alloc(128)
		if !ok {
			t.Fatal("alloc failed")
		}
		offs = append(offs, off)
	}
	h.Flush()
	frees := m.Stats().Frees
	for _, off := range offs[:magCap] {
		h.Free(off)
	}
	if got := m.Stats().Frees; got != frees || h.Cached() != magCap {
		t.Fatalf("filling the magazine reached the back-end: %d frees (was %d), %d cached", got, frees, h.Cached())
	}

	// One more free drains the full magazine in one batch and parks the
	// new chunk in the emptied magazine.
	events = events[:0]
	spills := h.CacheStats().Spills
	h.Free(offs[magCap])
	if got := m.Stats().Frees - frees; got != magCap {
		t.Fatalf("overflow freed %d chunks to the back-end, want the whole magazine (%d)", got, magCap)
	}
	if got := h.CacheStats().Spills - spills; got != magCap || h.Cached() != 1 {
		t.Fatalf("overflow spilled %d chunks and left %d cached, want %d and 1", got, h.Cached(), magCap)
	}
	if len(events) != 1 || events[0] != (event{"drain", cls, magCap}) {
		t.Fatalf("events after the overflow = %+v, want one drain of %d", events, magCap)
	}
	fe.Scrub()
	if s := m.Stats(); s.Allocs != s.Frees {
		t.Fatalf("back-end unbalanced after Scrub: %d allocs vs %d frees", s.Allocs, s.Frees)
	}
}

// TestDepotConcurrentSpillRefill is the race net for the magazines: many
// handles run a remote-free pattern (each worker frees chunks its
// neighbour allocated), driving constant magazine overflow on the
// freeing side and constant exhaustion on the allocating side, so batch
// refills and drains reach the back-end from every worker concurrently.
// Between rounds, all workers quiesce and Scrub runs: after a quiesce
// the back-end balances.
func TestDepotConcurrentSpillRefill(t *testing.T) {
	fe, m := routedFrontend(t, 8)
	const workers = 8
	rounds := 6
	iters := 3000
	if testing.Short() {
		rounds, iters = 2, 800
	}

	// Per-unit claim map on the test side: the magazines must never let
	// one chunk be live in two places.
	span := alloc.SpanOf(fe)
	claims := make([]atomic.Int32, span/64)
	var overlaps atomic.Int64
	claim := func(off, reserved uint64, delta int32) {
		for u := off / 64; u < (off+reserved)/64; u++ {
			if v := claims[u].Add(delta); v != 0 && v != 1 {
				overlaps.Add(1)
			}
		}
	}

	handles := make([]*frontend.Handle, workers)
	for i := range handles {
		handles[i] = fe.NewHandle().(*frontend.Handle)
	}
	geo := fe.Geometry()

	for round := 0; round < rounds; round++ {
		// One hand-off ring per round: worker w frees what w-1 allocated.
		rings := make([]chan uint64, workers)
		for i := range rings {
			rings[i] = make(chan uint64, 256)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := handles[w]
				rng := rand.New(rand.NewSource(int64(round*workers + w)))
				out, in := rings[w], rings[(w+workers-1)%workers]
				// Ring values are offset+1 so the zero value of a closed
				// channel is never mistaken for a real offset 0.
				for i := 0; i < iters; i++ {
					size := uint64(64) << (rng.Intn(3) * 2) // 64, 256, 1024
					if off, ok := h.Alloc(size); ok {
						claim(off, geo.SizeOfLevel(geo.LevelForSize(size)), 1)
						select {
						case out <- off + 1:
						default:
							claim(off, geo.SizeOfLevel(geo.LevelForSize(size)), -1)
							h.Free(off)
						}
					}
					select {
					case v, ok := <-in:
						if ok {
							claim(v-1, fe.ChunkSize(v-1), -1)
							h.Free(v - 1)
						}
					default:
					}
				}
				// Drain the inbound ring so the round quiesces empty.
				close(out)
				for v := range in {
					claim(v-1, fe.ChunkSize(v-1), -1)
					h.Free(v - 1)
				}
			}()
		}
		wg.Wait()

		// Quiescent point: scrub, then reconcile the back-end.
		fe.Scrub()
		if s := m.Stats(); s.Allocs != s.Frees {
			t.Fatalf("round %d: back-end unbalanced after Scrub: %d allocs vs %d frees",
				round, s.Allocs, s.Frees)
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("round %d: %d overlapping-claim events (double hand-out through the magazines)", round, n)
		}
		for u := range claims {
			if v := claims[u].Load(); v != 0 {
				t.Fatalf("round %d: unit %d left with claim count %d", round, u, v)
			}
		}
	}

	// Refills and overflow drains must actually have happened, or the
	// race net is vacuous.
	cs := fe.CacheTotals()
	if cs.Misses == 0 || cs.Spills <= cs.Misses {
		t.Fatalf("magazines never refilled or drained under load: %+v", cs)
	}
}

// TestDrainDepotRange is the elastic shrink hook in isolation: the call
// cannot reach into per-worker magazines, so it arms the drain fence, and
// a worker whose magazine holds a chunk of the window flushes it on its
// own next operation, while a worker caching only chunks outside the
// window keeps them.
func TestDrainDepotRange(t *testing.T) {
	m, err := multi.New("4lvl-nb", 2, alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 14}, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLiveTracking()
	fe, err := frontend.New(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	span := m.InstanceSpan()

	// Worker k caches instance-k chunks: allocate them pinned at the
	// router (chunks allocated on instance k live in window k) and free
	// them through the worker.
	workers := make([]*frontend.Handle, 2)
	for k := range workers {
		rh := m.NewHandleOn(k)
		workers[k] = fe.NewHandle().(*frontend.Handle)
		for i := 0; i < 12; i++ {
			off, ok := rh.Alloc(128)
			if !ok {
				t.Fatalf("alloc on instance %d failed", k)
			}
			workers[k].Free(off)
		}
	}

	// Arming the fence moves nothing by itself: the workers are idle.
	fe.DrainDepotRange(0, span)
	if live := m.InstanceInfos()[0].Live; live != 12 {
		t.Fatalf("instance 0 has %d live chunks after arming the fence, want the 12 cached", live)
	}

	// One operation each: worker 0 flushes its window-0 magazine, worker
	// 1 keeps its window-1 chunks.
	pin := m.NewHandleOn(1)
	for k, w := range workers {
		off, ok := pin.Alloc(256)
		if !ok {
			t.Fatal("alloc on instance 1 failed")
		}
		w.Free(off)
		if want := 1 + 12*k; w.Cached() != want {
			t.Fatalf("worker %d caches %d chunks after its next operation, want %d", k, w.Cached(), want)
		}
	}
	if live := m.InstanceInfos()[0].Live; live != 0 {
		t.Fatalf("draining instance 0 still has %d live chunks", live)
	}
	// A full scrub still reconciles the back-end.
	fe.Scrub()
	if s := m.Stats(); s.Allocs != s.Frees {
		t.Fatalf("back-end unbalanced after Scrub: %d allocs vs %d frees", s.Allocs, s.Frees)
	}
}

// TestDrainFenceBatchOps checks that batch operations honour the drain
// fence like single ones: a worker that only moves batches after a drain
// is armed must still flush the magazines holding chunks of the draining
// window, or that instance's live count never reaches zero.
func TestDrainFenceBatchOps(t *testing.T) {
	for _, op := range []string{"AllocBatch", "FreeBatch"} {
		t.Run(op, func(t *testing.T) {
			m, err := multi.New("4lvl-nb", 2, alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 14}, multi.RoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			m.EnableLiveTracking()
			fe, err := frontend.New(m, 64)
			if err != nil {
				t.Fatal(err)
			}
			// Park window-0 chunks in the worker's magazine: allocate them
			// on instance 0 at the router, free them through the worker.
			on0 := m.NewHandleOn(0)
			fh := fe.NewHandle().(*frontend.Handle)
			for i := 0; i < 8; i++ {
				off, ok := on0.Alloc(128)
				if !ok {
					t.Fatal("alloc on instance 0 failed")
				}
				fh.Free(off)
			}
			if got := fh.Cached(); got != 8 {
				t.Fatalf("setup cached %d chunks, want 8", got)
			}
			fe.DrainDepotRange(0, m.InstanceSpan())

			// From here on the worker issues batches only.
			var out []uint64
			switch op {
			case "AllocBatch":
				out = fh.AllocBatch(256, 4)
			case "FreeBatch":
				fh.FreeBatch(alloc.HandleAllocBatch(m.NewHandleOn(1), 256, 4))
			}
			if got := fh.Cached(); got != 0 {
				t.Fatalf("%d window-0 chunks still cached after %s", got, op)
			}
			m.FreeBatch(out)
			if live := m.InstanceInfos()[0].Live; live != 0 {
				t.Fatalf("draining instance 0 still has %d live chunks", live)
			}
		})
	}
}
