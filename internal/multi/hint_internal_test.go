package multi

import (
	"testing"

	"repro/internal/alloc"

	_ "repro/internal/bunch"
)

// fixedRouter builds a Fixed-policy router of count 1lvl-nb instances of
// faultCfg's geometry: four max-size chunks per slot.
func fixedRouter(t *testing.T, count int) *Multi {
	t.Helper()
	m, err := New("1lvl-nb", count, faultCfg, Fixed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// fillSlot takes every max-size chunk of slot k straight from its leaf,
// past the router, so no failure hint is set on the way; it returns the
// chunks' global offsets.
func fillSlot(t *testing.T, m *Multi, k int) []uint64 {
	t.Helper()
	leaf := m.Instance(k).NewHandle()
	var offs []uint64
	for {
		off, ok := leaf.Alloc(faultCfg.MaxSize)
		if !ok {
			break
		}
		offs = append(offs, uint64(k)*m.InstanceSpan()+off)
	}
	if len(offs) == 0 {
		t.Fatalf("slot %d had no max-size chunk to fill", k)
	}
	return offs
}

// leafFails reads slot k's leaf AllocFails, which counts every leaf call
// that found no space.
func leafFails(m *Multi, k int) uint64 { return m.Instance(k).Stats().AllocFails }

// hintSkips reads the router's hint_skips extra.
func hintSkips(m *Multi) uint64 { return m.LayerStats()[0].Extra["hint_skips"] }

// hint reads slot k's failure-hint word.
func hint(m *Multi, k int) uint64 { return m.tab.Load().slots[k].full.Load() }

// TestFailureHintStaleBitStillServes: a slot hinted full that in fact has
// space is skipped while another slot can serve, and serves once every
// other slot is full. A stale hint moves a placement; it never fails an
// allocation.
func TestFailureHintStaleBitStillServes(t *testing.T) {
	m := fixedRouter(t, 3)
	m.tab.Load().slots[0].full.Store(^uint64(0))
	h := m.NewHandle().(*Handle)
	off, ok := h.Alloc(faultCfg.MaxSize)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("alloc past a stale hint = (%v, instance %d), want instance 1", ok, m.InstanceOf(off))
	}
	h.Free(off)
	held := append(fillSlot(t, m, 1), fillSlot(t, m, 2)...)
	for i := uint64(0); i < faultCfg.Total/faultCfg.MaxSize; i++ {
		off, ok := h.Alloc(faultCfg.MaxSize)
		if !ok || m.InstanceOf(off) != 0 {
			t.Fatalf("alloc %d with slots 1-2 full = (%v, instance %d), want instance 0", i, ok, m.InstanceOf(off))
		}
		held = append(held, off)
	}
	// Saved scans: slot 0 on the first alloc, then slots 1 and 2 on each
	// alloc after the one that found them full. Slot 0's second-pass asks
	// saved nothing.
	n := faultCfg.Total / faultCfg.MaxSize
	if got := hintSkips(m); got != 1+2*(n-1) {
		t.Fatalf("hint_skips = %d, want %d", got, 1+2*(n-1))
	}
	for _, off := range held {
		h.Free(off)
	}
}

// TestFailureHintSkipsFullPreferredSlot: once slot 0 refused a level, a
// Fixed handle is served by slot 1 without asking slot 0's leaf again,
// until a free reaches slot 0.
func TestFailureHintSkipsFullPreferredSlot(t *testing.T) {
	m := fixedRouter(t, 2)
	held := fillSlot(t, m, 0)
	h := m.NewHandle().(*Handle)
	fails := leafFails(m, 0)
	off, ok := h.Alloc(faultCfg.MaxSize)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("first alloc = (%v, instance %d), want instance 1", ok, m.InstanceOf(off))
	}
	if got := leafFails(m, 0) - fails; got != 1 {
		t.Fatalf("first alloc asked slot 0 %d times, want once", got)
	}
	if hint(m, 0) == 0 {
		t.Fatal("a leaf refusal set no hint")
	}
	held = append(held, off)
	off, ok = h.Alloc(faultCfg.MaxSize)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("hinted alloc = (%v, instance %d), want instance 1", ok, m.InstanceOf(off))
	}
	if got := leafFails(m, 0) - fails; got != 1 {
		t.Fatalf("hinted alloc asked slot 0's leaf: %d failures, want still 1", got)
	}
	held = append(held, off)
	if rs := m.RouteStats(); hintSkips(m) != 1 || rs.Fallbacks != 2 {
		t.Fatalf("hint_skips = %d, RouteStats = %+v; want 1 hint skip and 2 fallbacks", hintSkips(m), rs)
	}
	h.Free(held[0])
	if hint(m, 0) != 0 {
		t.Fatalf("a free on slot 0 left hint %#x", hint(m, 0))
	}
	off, ok = h.Alloc(faultCfg.MaxSize)
	if !ok || m.InstanceOf(off) != 0 {
		t.Fatalf("alloc after a free on slot 0 = (%v, instance %d), want instance 0", ok, m.InstanceOf(off))
	}
	held[0] = off
	for _, off := range held {
		h.Free(off)
	}
	h.Close()
	if got := hintSkips(m); got != 1 {
		t.Fatalf("hint_skips after Close = %d, want the folded 1", got)
	}
}

// TestFailureHintDrainReactivateScrub: a draining refusal is not a leaf
// failure and sets no hint; Reactivate and Scrub, which restore capacity
// without a routed free, clear the word.
func TestFailureHintDrainReactivateScrub(t *testing.T) {
	m := trackedRouter(t, 2, faultCfg)
	h := m.NewHandleOn(0).(*Handle)
	if err := m.StartDrain(0); err != nil {
		t.Fatal(err)
	}
	off, ok := h.Alloc(64)
	if !ok || m.InstanceOf(off) != 1 {
		t.Fatalf("alloc past a draining slot = (%v, instance %d)", ok, m.InstanceOf(off))
	}
	if w := hint(m, 0); w != 0 {
		t.Fatalf("a draining refusal set hint %#x", w)
	}
	h.Free(off)

	m.tab.Load().slots[0].markFull(1)
	if err := m.Reactivate(0); err != nil {
		t.Fatal(err)
	}
	if w := hint(m, 0); w != 0 {
		t.Fatalf("Reactivate left hint %#x", w)
	}
	m.tab.Load().slots[0].markFull(1)
	m.tab.Load().slots[1].markFull(2)
	m.Scrub()
	if w0, w1 := hint(m, 0), hint(m, 1); w0 != 0 || w1 != 0 {
		t.Fatalf("Scrub left hints %#x, %#x", w0, w1)
	}
}

// TestFailureHintBatch: a batch the leaf serves short sets the hint, the
// next batch skips the slot without a leaf call, and a FreeBatch that
// reaches the slot clears it.
func TestFailureHintBatch(t *testing.T) {
	m := fixedRouter(t, 2)
	held := fillSlot(t, m, 0)
	h := m.NewHandle().(*Handle)
	h.Free(held[0]) // slot 0 keeps exactly one max-size chunk
	held = held[1:]
	got := h.AllocBatch(faultCfg.MaxSize, 3)
	if len(got) != 3 || m.InstanceOf(got[0]) != 0 || m.InstanceOf(got[1]) != 1 || m.InstanceOf(got[2]) != 1 {
		t.Fatalf("partial batch = %#x, want one chunk on slot 0 and two on slot 1", got)
	}
	if hint(m, 0) == 0 {
		t.Fatal("a short batch set no hint")
	}
	held = append(held, got...)
	fails, allocs := leafFails(m, 0), m.Instance(0).Stats().Allocs
	got = h.AllocBatch(faultCfg.MaxSize, 1)
	if len(got) != 1 || m.InstanceOf(got[0]) != 1 {
		t.Fatalf("hinted batch = %#x, want one chunk on slot 1", got)
	}
	if s := m.Instance(0).Stats(); s.AllocFails != fails || s.Allocs != allocs {
		t.Fatal("the hinted batch asked slot 0's leaf")
	}
	held = append(held, got...)
	h.FreeBatch(held[:1])
	if w := hint(m, 0); w != 0 {
		t.Fatalf("FreeBatch on slot 0 left hint %#x", w)
	}
	got = h.AllocBatch(faultCfg.MaxSize, 1)
	if len(got) != 1 || m.InstanceOf(got[0]) != 0 {
		t.Fatalf("batch after a FreeBatch on slot 0 = %#x, want slot 0", got)
	}
	held[0] = got[0]
	h.FreeBatch(held)
}

// TestFailureHintAsksEachLeafOnce: on a saturated fleet an allocation
// asks every leaf exactly once, whichever slots are hinted: the second
// pass asks only what the first one skipped.
func TestFailureHintAsksEachLeafOnce(t *testing.T) {
	const count = 3
	m := fixedRouter(t, count)
	var held []uint64
	for k := 0; k < count; k++ {
		held = append(held, fillSlot(t, m, k)...)
	}
	h := m.NewHandle().(*Handle)
	ops := []struct {
		name string
		do   func() bool
	}{
		{"Alloc(max)", func() bool { _, ok := h.Alloc(faultCfg.MaxSize); return ok }},
		{"Alloc(64)", func() bool { _, ok := h.Alloc(64); return ok }},
		{"AllocBatch(64, 4)", func() bool { return len(h.AllocBatch(64, 4)) > 0 }},
	}
	for round := 0; round < 3; round++ {
		if round == 2 {
			// Only the middle slot hinted: one skip, two first-pass asks.
			for k := 0; k < count; k++ {
				m.tab.Load().slots[k].full.Store(0)
			}
			m.tab.Load().slots[1].markFull(^uint64(0))
		}
		for _, op := range ops {
			var before [count]uint64
			for k := range before {
				before[k] = leafFails(m, k)
			}
			if op.do() {
				t.Fatalf("round %d: %s succeeded on a full fleet", round, op.name)
			}
			for k := range before {
				if got := leafFails(m, k) - before[k]; got != 1 {
					t.Fatalf("round %d: %s asked slot %d's leaf %d times, want once", round, op.name, k, got)
				}
			}
		}
	}
	if got := hintSkips(m); got != 0 {
		t.Fatalf("hint_skips = %d after failed allocations, want 0", got)
	}
	alloc.HandleFreeBatch(h, held)
}
