package multi

import (
	"testing"

	"repro/internal/alloc"

	_ "repro/internal/bunch"
)

// TestSyncTableDropsRetiredSubHandles pins the release semantics of the
// handle sub-caches: once a slot retires and the owner goroutine
// observes the new table, the handle must drop its cached sub-handle so
// the retired instance's metadata is garbage-collectable — the whole
// point of an elastic shrink.
func TestSyncTableDropsRetiredSubHandles(t *testing.T) {
	cfg := alloc.Config{Total: 1 << 12, MinSize: 64, MaxSize: 1 << 10}
	m, err := New("1lvl-nb", 2, cfg, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLiveTracking()
	h := m.NewHandleOn(1).(*Handle)
	off, ok := h.Alloc(64)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("pinned alloc = (%v, instance %d)", ok, m.InstanceOf(off))
	}
	h.Free(off)
	if h.subs[1].h == nil {
		t.Fatal("sub-handle for slot 1 not cached after use")
	}
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}
	if done, err := m.TryRetire(1); err != nil || !done {
		t.Fatalf("TryRetire = (%v, %v)", done, err)
	}
	// The cache survives until the owner observes the new table...
	if h.subs[1].h == nil {
		t.Fatal("sub-handle dropped before the owner observed the table change")
	}
	// ...and the next operation drops it.
	off, ok = h.Alloc(64)
	if !ok {
		t.Fatal("alloc after retire failed")
	}
	h.Free(off)
	if h.subs[1].h != nil || h.subs[1].id != 0 || h.subs[1].cell != nil {
		t.Fatalf("retired slot's sub-handle still cached after an op: %+v", h.subs[1])
	}
	// A refilled hole gets a fresh sub-handle keyed by the new id.
	k, err := m.AddInstance()
	if err != nil || k != 1 {
		t.Fatalf("AddInstance = (%d, %v)", k, err)
	}
	h2 := m.NewHandleOn(1).(*Handle)
	off, ok = h2.Alloc(64)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("alloc on refilled hole = (%v, instance %d)", ok, m.InstanceOf(off))
	}
	h2.Free(off)
}

// TestRouteShiftMatchesDivision pins the router's shift routing: New
// refuses an instance span that is not a power of two, and over a table
// AddInstance grew, route sends the first and last offsets of every
// window to the slot and local offset division gives, and still panics
// just past the offset space.
func TestRouteShiftMatchesDivision(t *testing.T) {
	cfg := alloc.Config{Total: 1 << 12, MinSize: 64, MaxSize: 1 << 10}
	odd := cfg
	odd.Total = 3 << 12
	if _, err := New("1lvl-nb", 1, odd, RoundRobin); err == nil {
		t.Fatalf("New accepted a %d-byte instance span", odd.Total)
	}
	m, err := New("1lvl-nb", 1, cfg, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.AddInstance(); err != nil {
			t.Fatal(err)
		}
	}
	tab := m.tab.Load()
	span := m.InstanceSpan()
	if len(tab.slots) != 5 || m.OffsetSpan() != 5*span {
		t.Fatalf("grown table: %d slots over %d bytes, want 5 over %d", len(tab.slots), m.OffsetSpan(), 5*span)
	}
	for k := uint64(0); k < uint64(len(tab.slots)); k++ {
		for _, off := range []uint64{k * span, k*span + cfg.MinSize, (k+1)*span - cfg.MinSize, (k+1)*span - 1} {
			got, local, s := m.route(tab, off)
			if want := off / span; got != int(want) || m.InstanceOf(off) != got || local != off%span || s != tab.slots[want] {
				t.Fatalf("route(%#x) = (slot %d, local %#x), InstanceOf %d; want slot %d, local %#x",
					off, got, local, m.InstanceOf(off), want, off%span)
			}
		}
	}
	for _, off := range []uint64{m.OffsetSpan(), m.OffsetSpan() + cfg.MinSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("route(%#x), past the %d-byte offset space, did not panic", off, m.OffsetSpan())
				}
			}()
			m.route(tab, off)
		}()
	}
}
