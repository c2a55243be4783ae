package multi

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/alloc"

	_ "repro/internal/bunch"
)

// trackedRouter builds a live-tracked router of count 1lvl-nb instances.
func trackedRouter(t *testing.T, count int, cfg alloc.Config) *Multi {
	t.Helper()
	m, err := New("1lvl-nb", count, cfg, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLiveTracking()
	return m
}

// TestLiveCellsFillWholeCacheLines pins the layout the single-writer
// argument is about: a cell, and the handle that writes its counters on
// every operation, each cover whole cache lines, so no two workers write
// one line.
func TestLiveCellsFillWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(liveCell{}); n != 64 {
		t.Errorf("liveCell is %d bytes, want one 64-byte line", n)
	}
	if n := unsafe.Sizeof(Handle{}); n%64 != 0 {
		t.Errorf("Handle is %d bytes, want a multiple of 64", n)
	}
}

// liveOf returns slot k's summed live count and bytes.
func liveOf(m *Multi, k int) (int64, int64) {
	info := m.InstanceInfos()[k]
	return info.Live, info.LiveBytes
}

// TestLiveCellsCrossHandleFree: chunks allocated through one handle and
// freed through another leave the two cells at +n and -n. Only their sum
// means anything, and a zero sum lets the slot retire.
func TestLiveCellsCrossHandleFree(t *testing.T) {
	m := trackedRouter(t, 2, faultCfg)
	a := m.NewHandleOn(0).(*Handle)
	b := m.NewHandleOn(1).(*Handle)
	const n = 5
	var offs []uint64
	for range n {
		off, ok := a.Alloc(100) // reserves 128
		if !ok || m.InstanceOf(off) != 0 {
			t.Fatalf("alloc = (%v, instance %d)", ok, m.InstanceOf(off))
		}
		offs = append(offs, off)
	}
	if live, bytes := liveOf(m, 0); live != n || bytes != n*128 {
		t.Fatalf("after allocs: live=%d bytes=%d, want %d/%d", live, bytes, n, n*128)
	}
	for _, off := range offs {
		b.Free(off)
	}
	ca, cb := a.subs[0].cell, b.subs[0].cell
	if ca.n.Load() != n || ca.bytes.Load() != n*128 || cb.n.Load() != -n || cb.bytes.Load() != -n*128 {
		t.Fatalf("cells: a=%d/%d b=%d/%d, want %d/%d and %d/%d",
			ca.n.Load(), ca.bytes.Load(), cb.n.Load(), cb.bytes.Load(), n, n*128, -n, -n*128)
	}
	if live, bytes := liveOf(m, 0); live != 0 || bytes != 0 {
		t.Fatalf("after cross-handle frees: live=%d bytes=%d, want 0/0", live, bytes)
	}
	if err := m.StartDrain(0); err != nil {
		t.Fatal(err)
	}
	if done, err := m.TryRetire(0); err != nil || !done {
		t.Fatalf("TryRetire = (%v, %v), want retired", done, err)
	}
}

// TestLiveCellsCloseFold: a closing handle folds its cells into the
// slot's base, so chunks it allocated stay counted after it is gone, and
// the slot's cell list does not grow with handle churn.
func TestLiveCellsCloseFold(t *testing.T) {
	m := trackedRouter(t, 2, faultCfg)
	a := m.NewHandleOn(0).(*Handle)
	const n = 7
	offs := alloc.HandleAllocBatch(a, 64, n)
	if len(offs) != n {
		t.Fatalf("batch = %d chunks, want %d", len(offs), n)
	}
	s := m.tab.Load().slots[0]
	a.Close()
	if live, bytes := liveOf(m, 0); live != n || bytes != n*64 {
		t.Fatalf("after close: live=%d bytes=%d, want %d/%d", live, bytes, n, n*64)
	}
	if len(s.cells) != 0 || s.base != n {
		t.Fatalf("after close: %d cells registered, base %d; want 0 and %d", len(s.cells), s.base, n)
	}
	if err := m.StartDrain(0); err != nil {
		t.Fatal(err)
	}
	if done, _ := m.TryRetire(0); done {
		t.Fatal("slot with live chunks of a closed handle retired")
	}
	b := m.NewHandleOn(1).(*Handle)
	alloc.HandleFreeBatch(b, offs)
	if live, bytes := liveOf(m, 0); live != 0 || bytes != 0 {
		t.Fatalf("after frees: live=%d bytes=%d, want 0/0", live, bytes)
	}
	if done, err := m.TryRetire(0); err != nil || !done {
		t.Fatalf("TryRetire = (%v, %v), want retired", done, err)
	}
}

// TestLiveCellsChurn races the cells against the slot lifecycle: workers
// allocate and free across handles (offsets change hands through a
// shared pool) and close and reopen their handles, while one goroutine
// drains, retires, reactivates and regrows slots. Workers keep going
// until the controller has retired a few slots under their traffic. No
// delivered offset may route to an unpublished slot, and once quiet every
// slot reads zero and every draining slot retires.
func TestLiveCellsChurn(t *testing.T) {
	cfg := alloc.Config{Total: 1 << 16, MinSize: 64, MaxSize: 1 << 12}
	m := trackedRouter(t, 3, cfg)
	const workers = 4
	const ops, minRetires = 4000, 10
	pool := make(chan uint64, 512)
	published := func(off uint64) {
		t := m.tab.Load()
		if k := m.InstanceOf(off); k >= len(t.slots) || t.slots[k] == nil {
			panic("live offset routes to an unpublished slot")
		}
	}

	var stop atomic.Bool
	var retired atomic.Int64
	ctl := make(chan struct{})
	go func() {
		defer close(ctl)
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			k := rng.Intn(m.Slots())
			switch rng.Intn(4) {
			case 0:
				_ = m.StartDrain(k)
			case 1:
				if done, _ := m.TryRetire(k); done {
					retired.Add(1)
				}
			case 2:
				_ = m.Reactivate(k)
			default:
				if m.Instances() < 3 {
					if _, err := m.AddInstance(); err != nil {
						panic(err)
					}
				}
				_ = m.InstanceInfos()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 2))
			h := m.NewHandle().(*Handle)
			defer func() { h.Close() }()
			var own []uint64
			for i := 0; (i < ops || retired.Load() < minRetires) && i < 100*ops; i++ {
				if i%500 == 499 {
					h.Close()
					h = m.NewHandle().(*Handle)
				}
				switch rng.Intn(6) {
				case 0, 1:
					size := uint64(64) << rng.Intn(4)
					if off, ok := h.Alloc(size); ok {
						published(off)
						select {
						case pool <- off:
						default:
							own = append(own, off)
						}
					}
				case 2:
					for _, off := range h.AllocBatch(64, 1+rng.Intn(8)) {
						published(off)
						own = append(own, off)
					}
				case 3, 4:
					select {
					case off := <-pool:
						published(off)
						h.Free(off)
					default:
					}
				default:
					if n := len(own); n > 0 {
						cut := rng.Intn(n)
						for _, off := range own[cut:] {
							published(off)
						}
						h.FreeBatch(own[cut:])
						own = own[:cut]
					}
				}
			}
			for _, off := range own {
				h.Free(off)
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-ctl
	if n := retired.Load(); n < minRetires {
		t.Fatalf("only %d slots retired under traffic, want %d", n, minRetires)
	}

	h := m.NewHandle()
	for len(pool) > 0 {
		h.Free(<-pool)
	}
	alloc.CloseHandle(h)
	for _, info := range m.InstanceInfos() {
		if info.Live != 0 || info.LiveBytes != 0 {
			t.Fatalf("slot %d not settled once quiet: %+v", info.Slot, info)
		}
		if info.State == Draining {
			if done, err := m.TryRetire(info.Slot); err != nil || !done {
				t.Fatalf("quiet draining slot %d: TryRetire = (%v, %v)", info.Slot, done, err)
			}
		}
	}
}
