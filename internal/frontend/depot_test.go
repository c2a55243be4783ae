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

// depotFrontend builds the depot-backed front-end over a 4-instance
// router of the given leaf — the full production composition.
func depotFrontend(t *testing.T, variant string, magCap, depotCap int) (*frontend.Allocator, *multi.Multi) {
	t.Helper()
	m, err := multi.New(variant, 4, alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 14}, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := frontend.New(m, magCap, frontend.WithDepot(depotCap))
	if err != nil {
		t.Fatal(err)
	}
	return fe, m
}

// TestDepotExchange checks the O(1) magazine hand-off: a handle that
// overflows parks full magazines in the depot, and a second handle that
// runs dry picks them up without touching the back-end.
func TestDepotExchange(t *testing.T) {
	fe, _ := depotFrontend(t, "4lvl-nb", 8, 4)
	producer := fe.NewHandle().(*frontend.Handle)
	consumer := fe.NewHandle().(*frontend.Handle)

	// The producer allocates and frees enough chunks of one class to
	// overflow its magazine repeatedly.
	var offs []uint64
	for i := 0; i < 64; i++ {
		off, ok := producer.Alloc(128)
		if !ok {
			t.Fatal("producer alloc failed")
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		producer.Free(off)
	}
	ds := fe.Depot().Stats()
	if ds.FullPushes == 0 {
		t.Fatalf("no full magazines reached the depot: %+v", ds)
	}
	if fe.Depot().Retained() == 0 {
		t.Fatal("depot retained no chunks after producer overflow")
	}

	// The consumer, whose magazine is empty, must be served by a depot
	// exchange, not by the back-end.
	beforeMiss := consumer.CacheStats().Misses
	if _, ok := consumer.Alloc(128); !ok {
		t.Fatal("consumer alloc failed")
	}
	if got := consumer.CacheStats().Misses; got != beforeMiss {
		t.Fatalf("consumer went to the back-end (%d misses) despite a stocked depot", got)
	}
	if ds := fe.Depot().Stats(); ds.FullPops != 1 {
		t.Fatalf("depot full pops = %d, want 1", ds.FullPops)
	}
	fe.Scrub()
	if fe.Depot().Retained() != 0 {
		t.Fatalf("depot retained %d chunks after Scrub", fe.Depot().Retained())
	}
}

// TestDepotBatchRefillAndDrain checks both back-end crossings: a depot
// miss refills the magazine in one batch, and overflowing past the depot
// capacity drains whole magazines back down.
func TestDepotBatchRefillAndDrain(t *testing.T) {
	fe, _ := depotFrontend(t, "4lvl-nb", 4, 1)
	h := fe.NewHandle().(*frontend.Handle)

	// Cold start: the first allocation must batch-refill (depot empty).
	first, ok := h.Alloc(128)
	if !ok {
		t.Fatal("alloc failed")
	}
	ds := fe.Depot().Stats()
	if ds.Refills != 1 || ds.RefilledChunks == 0 {
		t.Fatalf("cold alloc did not batch-refill: %+v", ds)
	}
	if h.Cached() != int(ds.RefilledChunks)-1 {
		t.Fatalf("magazine holds %d chunks, want refilled-1 = %d", h.Cached(), ds.RefilledChunks-1)
	}

	// Overflow far past the 1-magazine depot capacity: drains must kick in.
	var offs []uint64
	for i := 0; i < 40; i++ {
		off, ok := h.Alloc(128)
		if !ok {
			t.Fatal("alloc failed")
		}
		offs = append(offs, off)
	}
	for _, off := range offs {
		h.Free(off)
	}
	h.Free(first)
	ds = fe.Depot().Stats()
	if ds.Drains == 0 || ds.DrainedChunks == 0 {
		t.Fatalf("no drains despite overflowing a capacity-1 depot: %+v", ds)
	}
	fe.Scrub()
	if s := fe.Unwrap().Stats(); s.Allocs != s.Frees {
		t.Fatalf("back-end unbalanced after Scrub: %d allocs vs %d frees", s.Allocs, s.Frees)
	}
}

// TestDepotConcurrentSpillRefill is the race net for the depot layer:
// many handles run a remote-free pattern (each worker frees chunks its
// neighbour allocated), driving constant magazine overflow on the
// freeing side and constant exhaustion on the allocating side, so the
// depot's O(1) exchanges happen from every worker concurrently. Between
// rounds, all workers quiesce and Scrub runs, extending the PR-1
// stats-reconciliation invariant to the depot layer: after a quiesce the
// depot retains nothing and the back-end balances.
func TestDepotConcurrentSpillRefill(t *testing.T) {
	fe, m := depotFrontend(t, "4lvl-nb", 8, 6)
	const workers = 8
	rounds := 6
	iters := 3000
	if testing.Short() {
		rounds, iters = 2, 800
	}

	// Per-unit claim map on the test side: the depot must never let one
	// chunk be live in two places.
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

		// Quiescent point: scrub, then reconcile depot and back-end.
		fe.Scrub()
		if got := fe.Depot().Retained(); got != 0 {
			t.Fatalf("round %d: depot retained %d chunks after Scrub", round, got)
		}
		if s := m.Stats(); s.Allocs != s.Frees {
			t.Fatalf("round %d: back-end unbalanced after Scrub: %d allocs vs %d frees",
				round, s.Allocs, s.Frees)
		}
		if n := overlaps.Load(); n != 0 {
			t.Fatalf("round %d: %d overlapping-claim events (double hand-out through the depot)", round, n)
		}
		for u := range claims {
			if v := claims[u].Load(); v != 0 {
				t.Fatalf("round %d: unit %d left with claim count %d", round, u, v)
			}
		}
	}

	// The depot must actually have been exercised, or the race net is
	// vacuous.
	ds := fe.Depot().Stats()
	if ds.FullPushes == 0 || ds.FullPops == 0 {
		t.Fatalf("depot never exchanged a magazine under load: %+v", ds)
	}
}

// TestDrainDepotRange is the elastic shrink hook in isolation: only
// magazines holding at least one chunk of the requested offset window are
// evicted (whole, since magazines mix instances), their chunks go back to
// the back-end, and magazines entirely outside the window stay parked.
func TestDrainDepotRange(t *testing.T) {
	fe, m := depotFrontend(t, "4lvl-nb", 4, 16)
	span := m.InstanceSpan()

	// Park magazines from two pinned producers so the depot holds full
	// magazines attributable to instance 0 and instance 1 respectively.
	// Frontend handles route through round-robin router handles, so pin at
	// the router: chunks allocated on instance k live in window k.
	for k := 0; k < 2; k++ {
		rh := m.NewHandleOn(k)
		var offs []uint64
		for i := 0; i < 12; i++ {
			off, ok := rh.Alloc(128)
			if !ok {
				t.Fatalf("alloc on instance %d failed", k)
			}
			offs = append(offs, off)
		}
		// Frees enter the front-end path, overflow the 4-cap magazine and
		// park in the depot.
		fh := fe.NewHandle().(*frontend.Handle)
		for _, off := range offs {
			fh.Free(off)
		}
		fh.Flush()
	}
	if fe.Depot().Retained() == 0 {
		t.Fatal("setup parked nothing in the depot")
	}

	// Drain instance 0's window. Every instance-0 chunk must leave the
	// depot; instance-1 magazines stay parked unless a magazine mixed both.
	beforeFrees := m.Stats().Frees
	fe.DrainDepotRange(0, span)
	if got := m.Stats().Frees; got == beforeFrees {
		t.Fatal("drained magazines were not freed to the back-end")
	}
	if fe.Depot().Retained() == 0 {
		t.Fatal("instance-1 magazines should have survived the instance-0 drain")
	}
	for _, off := range depotOffsets(fe) {
		if off < span {
			t.Fatalf("offset %#x of the drained window still parked in the depot", off)
		}
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

// depotOffsets snapshots every chunk offset parked in the depot. The
// snapshot is destructive (DrainAll), so the chunks are handed straight
// back to the back-end — callers assert on the returned offsets and treat
// the depot as empty afterwards.
func depotOffsets(fe *frontend.Allocator) []uint64 {
	var out []uint64
	for _, mag := range fe.Depot().DrainAll() {
		out = append(out, mag...)
		alloc.FreeBatchOf(fe.Unwrap(), mag)
	}
	return out
}
