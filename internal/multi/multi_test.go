package multi_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/alloctest"
	"repro/internal/mem"
	"repro/internal/multi"

	_ "repro/internal/bunch"
)

var per = alloc.Config{Total: 1 << 16, MinSize: 64, MaxSize: 1 << 14}

func TestRoutingAndGlobalOffsets(t *testing.T) {
	m, err := multi.New("1lvl-nb", 4, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if m.Instances() != 4 {
		t.Fatalf("Instances = %d", m.Instances())
	}
	// Round-robin handles prefer distinct instances; their first
	// allocations land in distinct offset windows.
	seen := map[int]bool{}
	var offs []uint64
	for i := 0; i < 4; i++ {
		h := m.NewHandle()
		off, ok := h.Alloc(64)
		if !ok {
			t.Fatal("alloc failed")
		}
		seen[m.InstanceOf(off)] = true
		offs = append(offs, off)
	}
	if len(seen) != 4 {
		t.Fatalf("4 round-robin handles hit %d distinct instances", len(seen))
	}
	for _, off := range offs {
		m.Free(off)
	}
}

func TestFixedPolicyPinsInstanceZero(t *testing.T) {
	m, err := multi.New("1lvl-nb", 4, per, multi.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h := m.NewHandle()
		off, ok := h.Alloc(64)
		if !ok {
			t.Fatal("alloc failed")
		}
		if m.InstanceOf(off) != 0 {
			t.Fatalf("fixed-policy handle landed on instance %d", m.InstanceOf(off))
		}
		h.Free(off)
	}
}

func TestFallbackWhenPreferredFull(t *testing.T) {
	m, err := multi.New("1lvl-nb", 2, per, multi.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	h := m.NewHandle()
	// Exhaust instance 0 (every handle prefers it under Fixed).
	var offs []uint64
	for {
		off, ok := h.Alloc(1 << 14)
		if !ok {
			t.Fatal("alloc failed before both instances were full")
		}
		offs = append(offs, off)
		if m.InstanceOf(off) == 1 {
			break // fallback reached instance 1
		}
	}
	if got := m.InstanceOf(offs[len(offs)-1]); got != 1 {
		t.Fatalf("fallback allocation on instance %d", got)
	}
	for _, off := range offs {
		m.Free(off)
	}
	// Exhaust everything: Alloc must eventually fail rather than spin.
	offs = offs[:0]
	for {
		off, ok := h.Alloc(1 << 14)
		if !ok {
			break
		}
		offs = append(offs, off)
	}
	if len(offs) != 2*4 { // 2 instances x (64K/16K) chunks
		t.Fatalf("filled %d max-size chunks, want 8", len(offs))
	}
	for _, off := range offs {
		m.Free(off)
	}
	if s := m.Stats(); s.Allocs != s.Frees {
		t.Fatalf("back-end stats after the frees: %d allocs, %d frees", s.Allocs, s.Frees)
	}
}

func TestConcurrentAcrossInstances(t *testing.T) {
	m, err := multi.New("1lvl-nb", 4, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.NewHandle()
			var live []uint64
			for i := 0; i < 5000; i++ {
				if off, ok := h.Alloc(64 << (i % 3)); ok {
					live = append(live, off)
				}
				if len(live) > 16 {
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
	s := m.Stats()
	if s.Allocs != s.Frees {
		t.Fatalf("leak across instances: %d allocs vs %d frees", s.Allocs, s.Frees)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := multi.New("1lvl-nb", 0, per, multi.RoundRobin); err == nil {
		t.Error("zero instances accepted")
	}
	if _, err := multi.New("no-such", 2, per, multi.RoundRobin); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestName(t *testing.T) {
	m, err := multi.New("1lvl-nb", 2, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "multi[2x 1lvl-nb]" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestChunkSizeRoutesGlobally(t *testing.T) {
	m, err := multi.New("1lvl-nb", 4, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	// Pin a handle per instance so allocations land in every window.
	for k := 0; k < 4; k++ {
		h := m.NewHandleOn(k)
		off, ok := h.Alloc(100)
		if !ok {
			t.Fatal("alloc failed")
		}
		if m.InstanceOf(off) != k {
			t.Fatalf("pinned handle %d landed on instance %d", k, m.InstanceOf(off))
		}
		if got := m.ChunkSize(off); got != 128 {
			t.Fatalf("ChunkSize(%#x) = %d, want 128", off, got)
		}
		h.Free(off)
	}
	// An offset outside the global span panics.
	defer func() {
		if recover() == nil {
			t.Error("ChunkSize outside the offset space did not panic")
		}
	}()
	m.ChunkSize(4 * per.Total)
}

func TestOffsetSpan(t *testing.T) {
	m, err := multi.New("1lvl-nb", 4, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if got := alloc.SpanOf(m); got != 4*per.Total {
		t.Fatalf("SpanOf = %d, want %d", got, 4*per.Total)
	}
}

// TestConvenienceDoesNotLeakHandles regresses the transient-handle leak:
// the convenience Alloc/Free path must reuse pooled handles instead of
// permanently registering a fresh sub-handle set per call.
func TestConvenienceDoesNotLeakHandles(t *testing.T) {
	m, err := multi.New("1lvl-nb", 2, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		off, ok := m.Alloc(64)
		if !ok {
			t.Fatal("alloc failed")
		}
		m.Free(off)
	}
	if got := m.Handles(); got > 4 {
		t.Fatalf("%d handles registered by 2000 sequential convenience ops", got)
	}
}

func TestRouteStatsCountFallbacks(t *testing.T) {
	m, err := multi.New("1lvl-nb", 2, per, multi.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	h := m.NewHandle()
	// Fill instance 0 with max-size chunks; the next allocation must fall
	// back to instance 1 and be counted.
	var offs []uint64
	for i := 0; i < int(per.Total/per.MaxSize); i++ {
		off, ok := h.Alloc(per.MaxSize)
		if !ok {
			t.Fatal("fill alloc failed")
		}
		offs = append(offs, off)
	}
	off, ok := h.Alloc(per.MaxSize)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("fallback alloc = (%v, instance %d)", ok, m.InstanceOf(off))
	}
	offs = append(offs, off)
	rs := m.RouteStats()
	if rs.Fallbacks != 1 {
		t.Fatalf("RouteStats.Fallbacks = %d, want 1", rs.Fallbacks)
	}
	if rs.Routed != uint64(len(offs)-1) {
		t.Fatalf("RouteStats.Routed = %d, want %d", rs.Routed, len(offs)-1)
	}
	for _, off := range offs {
		m.Free(off)
	}
}

// elasticRouter builds a router with live tracking on, as the elastic
// manager does at construction.
func elasticRouter(t *testing.T, count int) *multi.Multi {
	t.Helper()
	m, err := multi.New("1lvl-nb", count, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLiveTracking()
	return m
}

func TestLifecycleRequiresLiveTracking(t *testing.T) {
	m, err := multi.New("1lvl-nb", 2, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartDrain(1); err == nil {
		t.Error("StartDrain without live tracking accepted")
	}
	if _, err := m.TryRetire(1); err == nil {
		t.Error("TryRetire without live tracking accepted")
	}
}

func TestAddInstanceWidensThenReusesHoles(t *testing.T) {
	m := elasticRouter(t, 2)
	if got := alloc.SpanOf(m); got != 2*per.Total {
		t.Fatalf("initial span = %d", got)
	}
	// Appending widens the table.
	k, err := m.AddInstance()
	if err != nil || k != 2 {
		t.Fatalf("AddInstance = (%d, %v), want slot 2", k, err)
	}
	if got := alloc.SpanOf(m); got != 3*per.Total {
		t.Fatalf("span after append = %d, want %d", got, 3*per.Total)
	}
	// Retire slot 1 and grow again: the hole is reused, the span is
	// unchanged, and the slot serves its old offset window.
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}
	if done, err := m.TryRetire(1); err != nil || !done {
		t.Fatalf("TryRetire(1) = (%v, %v)", done, err)
	}
	if got := m.Instances(); got != 2 {
		t.Fatalf("Instances after retire = %d, want 2", got)
	}
	k, err = m.AddInstance()
	if err != nil || k != 1 {
		t.Fatalf("AddInstance after retire = (%d, %v), want hole 1", k, err)
	}
	if got := alloc.SpanOf(m); got != 3*per.Total {
		t.Fatalf("span after hole reuse = %d, want %d", got, 3*per.Total)
	}
	h := m.NewHandleOn(1)
	off, ok := h.Alloc(64)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("refilled slot alloc = (%v, instance %d)", ok, m.InstanceOf(off))
	}
	h.Free(off)
}

func TestDrainingReceivesFreesRefusesAllocs(t *testing.T) {
	m := elasticRouter(t, 2)
	h := m.NewHandleOn(0)
	off, ok := h.Alloc(64)
	if !ok || m.InstanceOf(off) != 0 {
		t.Fatalf("pinned alloc = (%v, instance %d)", ok, m.InstanceOf(off))
	}
	if err := m.StartDrain(0); err != nil {
		t.Fatal(err)
	}
	// New allocations skip the draining slot even for a handle that
	// prefers it.
	off2, ok := h.Alloc(64)
	if !ok || m.InstanceOf(off2) != 1 {
		t.Fatalf("alloc during drain = (%v, instance %d), want fallback to 1", ok, m.InstanceOf(off2))
	}
	// Retirement is refused while the chunk is live.
	if done, err := m.TryRetire(0); err != nil || done {
		t.Fatalf("TryRetire with a live chunk = (%v, %v)", done, err)
	}
	// The free routes back to the draining instance by offset, after
	// which retirement succeeds.
	h.Free(off)
	if done, err := m.TryRetire(0); err != nil || !done {
		t.Fatalf("TryRetire after the free = (%v, %v)", done, err)
	}
	h.Free(off2)
	// Freeing into a retired window panics (nothing can legally be live
	// there).
	defer func() {
		if recover() == nil {
			t.Error("free into a retired slot's window did not panic")
		}
	}()
	m.Free(off)
}

func TestStartDrainRefusesLastActive(t *testing.T) {
	m := elasticRouter(t, 2)
	if err := m.StartDrain(0); err != nil {
		t.Fatal(err)
	}
	if err := m.StartDrain(1); err == nil {
		t.Error("draining the last active instance accepted")
	}
	if err := m.Reactivate(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Reactivate(0); err == nil {
		t.Error("reactivating an active instance accepted")
	}
}

func TestInstanceInfosTrackLiveBytes(t *testing.T) {
	m := elasticRouter(t, 2)
	h := m.NewHandleOn(0)
	off, ok := h.Alloc(100) // reserves 128
	if !ok {
		t.Fatal("alloc failed")
	}
	infos := m.InstanceInfos()
	if infos[0].State != multi.Active || infos[0].Live != 1 || infos[0].LiveBytes != 128 {
		t.Fatalf("slot 0 info = %+v, want active live=1 liveBytes=128", infos[0])
	}
	if infos[1].Live != 0 {
		t.Fatalf("slot 1 info = %+v, want empty", infos[1])
	}
	h.Free(off)
	infos = m.InstanceInfos()
	if infos[0].Live != 0 || infos[0].LiveBytes != 0 {
		t.Fatalf("slot 0 info after free = %+v", infos[0])
	}
	// Batched ops settle the counters identically.
	batch := alloc.HandleAllocBatch(h, 64, 5)
	if len(batch) != 5 {
		t.Fatalf("batch = %d chunks", len(batch))
	}
	var live, liveBytes int64
	for _, info := range m.InstanceInfos() {
		live += info.Live
		liveBytes += info.LiveBytes
	}
	if live != 5 || liveBytes != 5*64 {
		t.Fatalf("after batch: live=%d liveBytes=%d, want 5/320", live, liveBytes)
	}
	alloc.HandleFreeBatch(h, batch)
	for _, info := range m.InstanceInfos() {
		if info.Live != 0 || info.LiveBytes != 0 {
			t.Fatalf("slot %d not settled after batch free: %+v", info.Slot, info)
		}
	}
}

// TestFreeBatchAllocatesNothing: a bulk release groups its offsets in
// the handle's reused per-slot scratch, so once warm it allocates
// nothing, with and without live tracking.
func TestFreeBatchAllocatesNothing(t *testing.T) {
	const runs = 20
	for _, tracked := range []bool{false, true} {
		m, err := multi.New("1lvl-nb", 2, per, multi.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		if tracked {
			m.EnableLiveTracking()
		}
		on0, on1 := m.NewHandleOn(0), m.NewHandleOn(1)
		batches := make([][]uint64, runs+1) // AllocsPerRun adds a warm-up call
		for i := range batches {
			batches[i] = append(alloc.HandleAllocBatch(on0, 64, 2), alloc.HandleAllocBatch(on1, 64, 2)...)
			if len(batches[i]) != 4 {
				t.Fatalf("batch %d = %d chunks, want 4", i, len(batches[i]))
			}
		}
		h, i := m.NewHandle(), 0
		if n := testing.AllocsPerRun(runs, func() {
			alloc.HandleFreeBatch(h, batches[i])
			i++
		}); n != 0 {
			t.Errorf("tracked=%v: FreeBatch allocates %.1f times per call, want 0", tracked, n)
		}
	}
}

// TestAllocBatchAllocatesOnce: a batch one instance serves whole comes
// back in the leaf's own slice, rebased in place, so the router adds no
// allocation of its own, with and without live tracking. The offsets
// are still global: they land on the serving instance's span.
func TestAllocBatchAllocatesOnce(t *testing.T) {
	const runs, n = 20, 8
	for _, tracked := range []bool{false, true} {
		m, err := multi.New("1lvl-nb", 2, per, multi.RoundRobin)
		if err != nil {
			t.Fatal(err)
		}
		if tracked {
			m.EnableLiveTracking()
		}
		h := m.NewHandleOn(1)
		var got []uint64
		if allocs := testing.AllocsPerRun(runs, func() {
			got = alloc.HandleAllocBatch(h, 64, n)
			if len(got) != n {
				t.Fatalf("batch = %d chunks, want %d", len(got), n)
			}
			alloc.HandleFreeBatch(h, got)
		}); allocs != 1 {
			t.Errorf("tracked=%v: AllocBatch allocates %.1f times per call, want 1 (the leaf's slice)", tracked, allocs)
		}
		for _, off := range got {
			if k := m.InstanceOf(off); k != 1 {
				t.Fatalf("tracked=%v: offset %#x routes to instance %d, want 1", tracked, off, k)
			}
		}
	}
}

func TestScrubForwardsToInstances(t *testing.T) {
	m, err := multi.New("1lvl-nb", 2, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	// Scrub on a quiescent router must be a no-op, not a panic, and keep
	// the full span allocatable.
	m.Scrub()
	for k := 0; k < 2; k++ {
		h := m.NewHandleOn(k)
		off, ok := h.Alloc(per.MaxSize)
		if !ok {
			t.Fatalf("instance %d cannot serve max-size after Scrub", k)
		}
		h.Free(off)
	}
}

// TestBindMemoryContract covers the router-side mapped-backing rules:
// window geometry must match the instance span, binding commits every
// published slot's window, and the Name gains the mapped prefix so
// stacked labels reveal the backing.
func TestBindMemoryContract(t *testing.T) {
	m, err := multi.New("1lvl-nb", 2, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := mem.New(per.Total/2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindMemory(wrong); err == nil {
		t.Fatal("BindMemory accepted a mismatched window size")
	}
	r, err := mem.New(per.Total, 1) // short: BindMemory must Ensure the rest
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindMemory(r); err != nil {
		t.Fatal(err)
	}
	if m.Memory() != r {
		t.Fatal("Memory() does not expose the bound region")
	}
	if r.Windows() != 2 || !r.Committed(0) || !r.Committed(1) {
		t.Fatalf("bind must reserve and commit every published slot: windows=%d map=%v",
			r.Windows(), r.CommitMap())
	}
	if m.Name() != "mapped+multi[2x 1lvl-nb]" {
		t.Fatalf("Name = %q", m.Name())
	}
	// AddInstance appends a slot; its window is committed before the
	// instance can serve.
	m.EnableLiveTracking()
	k, err := m.AddInstance()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Committed(k) {
		t.Fatalf("added slot %d's window not committed", k)
	}
}

// TestFailureHintConcurrentChurn races the failure hints against
// cross-handle frees: workers behind a Fixed 2-slot router allocate
// single chunks and batches of mixed sizes, hand chunks to each other
// through a shared pool and free them there, so hints are set, skipped
// and cleared by different handles while both slots run near full. A
// shared occupancy oracle checks every delivery (no overlap, the
// reserved size, alignment), and once quiet the router must serve its
// whole span again: no hint may outlive the frees that made room.
func TestFailureHintConcurrentChurn(t *testing.T) {
	cfg := alloc.Config{Total: 1 << 14, MinSize: 64, MaxSize: 1 << 12}
	m, err := multi.New("1lvl-nb", 2, cfg, multi.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	geo := m.Geometry()
	var mu sync.Mutex
	occupied := map[uint64]bool{} // allocation unit -> taken
	admit := func(off, size uint64) bool {
		reserved := geo.SizeOfLevel(geo.LevelForSize(size))
		if got := m.ChunkSize(off); got != reserved || off%reserved != 0 {
			t.Errorf("chunk %#x of size %d: ChunkSize %d, want %d aligned", off, size, got, reserved)
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		for u := off / cfg.MinSize; u < (off+reserved)/cfg.MinSize; u++ {
			if occupied[u] {
				t.Errorf("chunk %#x of size %d double-hands-out unit %d", off, size, u)
				return false
			}
			occupied[u] = true
		}
		return true
	}
	// release drops a chunk from the oracle; it runs before the free, so a
	// re-delivery of the same range cannot race its own bookkeeping.
	release := func(off uint64) {
		reserved := m.ChunkSize(off)
		mu.Lock()
		defer mu.Unlock()
		for u := off / cfg.MinSize; u < (off+reserved)/cfg.MinSize; u++ {
			delete(occupied, u)
		}
	}

	const workers, ops = 4, 10000
	pool := make(chan uint64, 64)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			h := m.NewHandle()
			defer alloc.CloseHandle(h)
			var own []uint64
			for i := 0; i < ops; i++ {
				switch rng.Intn(6) {
				case 0, 1:
					size := uint64(64) << rng.Intn(7)
					off, ok := h.Alloc(size)
					if !ok {
						continue
					}
					if !admit(off, size) {
						return
					}
					select {
					case pool <- off:
					default:
						own = append(own, off)
					}
				case 2:
					size := uint64(64) << rng.Intn(3)
					for _, off := range alloc.HandleAllocBatch(h, size, 1+rng.Intn(6)) {
						if !admit(off, size) {
							return
						}
						own = append(own, off)
					}
				case 3, 4:
					select {
					case off := <-pool:
						release(off)
						h.Free(off)
					default:
					}
				default:
					if n := len(own); n > 0 {
						cut := rng.Intn(n)
						for _, off := range own[cut:] {
							release(off)
						}
						alloc.HandleFreeBatch(h, own[cut:])
						own = own[:cut]
					}
				}
			}
			for _, off := range own {
				release(off)
				h.Free(off)
			}
		}()
	}
	wg.Wait()
	h := m.NewHandle()
	for len(pool) > 0 {
		off := <-pool
		release(off)
		h.Free(off)
	}
	if t.Failed() {
		return
	}
	if s := m.Stats(); s.Allocs != s.Frees {
		t.Fatalf("leaves after the churn: %d allocs, %d frees", s.Allocs, s.Frees)
	}
	if m.LayerStats()[0].Extra["hint_skips"] == 0 {
		t.Fatal("the churn never skipped a hinted slot")
	}
	var full []uint64
	for {
		off, ok := h.Alloc(cfg.MaxSize)
		if !ok {
			break
		}
		full = append(full, off)
	}
	if want := 2 * int(cfg.Total/cfg.MaxSize); len(full) != want {
		t.Fatalf("quiet router served %d max-size chunks, want %d", len(full), want)
	}
	alloc.HandleFreeBatch(h, full)
}

// TestFailureHintDifferential runs the sequential differential oracle
// over a Fixed 2-slot router, where every handle prefers slot 0 and the
// failure hints decide most placements.
func TestFailureHintDifferential(t *testing.T) {
	alloctest.RunDifferential(t, func(t *testing.T, total, minSize, maxSize uint64) alloc.Allocator {
		m, err := multi.New("1lvl-nb", 2, alloc.Config{Total: total / 2, MinSize: minSize, MaxSize: maxSize}, multi.Fixed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
}
