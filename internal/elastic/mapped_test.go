package elastic_test

import (
	"testing"

	"repro/internal/elastic"
	"repro/internal/mem"
	"repro/internal/multi"
)

// mappedManager builds a router with a bound mapped region under the
// capacity manager — the lifecycle triple the mapped-memory backing is
// about: grow commits, retire decommits, grow-into-a-hole recommits.
func mappedManager(t *testing.T, instances int, cfg elastic.Config) (*elastic.Manager, *mem.Region) {
	t.Helper()
	m, err := multi.New("4lvl-nb", instances, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mem.New(per.Total, instances)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindMemory(r); err != nil {
		t.Fatal(err)
	}
	mgr, err := elastic.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, r
}

// memExtras digs the router's mem_* accounting out of the stack's
// LayerStats (the keys the ISSUE puts in the observability contract).
func memExtras(t *testing.T, mgr *elastic.Manager) map[string]uint64 {
	t.Helper()
	for _, layer := range mgr.LayerStats() {
		if _, ok := layer.Extra["mem_committed"]; ok {
			return layer.Extra
		}
	}
	t.Fatal("no layer reports mem_* accounting")
	return nil
}

func TestMappedRetireDecommitsWindow(t *testing.T) {
	mgr, r := mappedManager(t, 4, elastic.Config{MinInstances: 2, MaxInstances: 4})
	if got := r.Stats().CommittedBytes; got != 4*per.Total {
		t.Fatalf("committed bytes after bind = %d, want %d", got, 4*per.Total)
	}

	// Idle fleet: two streaks of Hysteresis polls retire down to the floor;
	// each retirement must decommit its window.
	first := decide(mgr)
	decide(mgr)
	if got := mgr.Router().Instances(); got != 2 {
		t.Fatalf("Instances = %d, want the floor 2", got)
	}
	if len(first.Retired) != 1 {
		t.Fatalf("first streak: %+v, want one retirement", first)
	}
	if r.Committed(first.Retired[0]) {
		t.Fatalf("retired slot %d's window is still committed", first.Retired[0])
	}
	s := r.Stats()
	if s.CommittedBytes != 2*per.Total || s.Decommits != 2 {
		t.Fatalf("after retiring to the floor: %+v", s)
	}

	// The accounting surfaces through LayerStats with the documented keys.
	extra := memExtras(t, mgr)
	if extra["mem_committed"] != 2*per.Total || extra["mem_decommits"] != 2 ||
		extra["mem_reserved"] != 4*per.Total || extra["mem_recommits"] != 0 {
		t.Fatalf("LayerStats mem accounting: %v", extra)
	}
}

// TestMappedGrowRecommitsHoleAndReuses is the decommit → recommit →
// alloc-reuse edge: capacity retired to the OS must come back zeroed and
// allocatable when pressure returns and the grow refills the hole.
func TestMappedGrowRecommitsHoleAndReuses(t *testing.T) {
	mgr, r := mappedManager(t, 3, elastic.Config{MinInstances: 1, MaxInstances: 3})
	// Retire twice down to the floor (decommits two windows)...
	decide(mgr)
	decide(mgr)
	if got := mgr.Router().Instances(); got != 1 {
		t.Fatalf("Instances = %d, want 1", got)
	}
	// ...then drive utilization over the high water so the grows refill
	// the holes and recommit their windows.
	offs := fill(t, mgr, elastic.HighWater)
	act := decide(mgr)
	if act.Grew < 0 {
		t.Fatalf("no grow under pressure: %+v", act)
	}
	if !r.Committed(act.Grew) {
		t.Fatalf("grown slot %d's window not committed", act.Grew)
	}
	s := r.Stats()
	if s.Recommits != 1 {
		t.Fatalf("grow into a decommitted hole must recommit: %+v", s)
	}
	// The recommitted window's instance serves allocations (reuse), and
	// the recommitted window is zero-filled.
	w := r.Window(act.Grew)
	if w[0] != 0 || w[len(w)-1] != 0 {
		t.Fatalf("recommitted window not zeroed: %x %x", w[0], w[len(w)-1])
	}
	before := mgr.Router().InstanceInfos()[act.Grew].Live
	var servedOnGrown bool
	for i := 0; i < 64 && !servedOnGrown; i++ {
		off, ok := mgr.Alloc(per.MaxSize)
		if !ok {
			break
		}
		offs = append(offs, off)
		servedOnGrown = mgr.Router().InstanceInfos()[act.Grew].Live > before
	}
	if !servedOnGrown {
		t.Fatal("recommitted instance never served an allocation")
	}
	for _, off := range offs {
		mgr.Free(off)
	}
}

// TestMappedReactivateKeepsWindowCommitted covers the drain-cancelled
// edge: a draining slot still backs live chunks, so its window must stay
// committed through StartDrain, and Reactivate must hand it back without
// a decommit/recommit round trip — chunks allocated before the drain
// stay valid throughout.
func TestMappedReactivateKeepsWindowCommitted(t *testing.T) {
	mgr, r := mappedManager(t, 2, elastic.Config{MinInstances: 1, MaxInstances: 2})
	// Pin a chunk on every instance so no drain can complete.
	var offs []uint64
	for k := range mgr.Router().InstanceInfos() {
		h := mgr.Router().NewHandleOn(k)
		off, ok := h.Alloc(per.MinSize)
		if !ok {
			t.Fatalf("pin alloc on instance %d failed", k)
		}
		offs = append(offs, off)
	}
	victim, err := mgr.Shrink()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Committed(victim) {
		t.Fatal("draining window must stay committed (it backs live chunks)")
	}
	// Pressure returns: the grow path reactivates the draining slot.
	grown, err := mgr.Grow()
	if err != nil {
		t.Fatal(err)
	}
	if grown != victim {
		t.Fatalf("grow reactivated slot %d, want the draining slot %d", grown, victim)
	}
	s := r.Stats()
	if s.Decommits != 0 || s.Recommits != 0 {
		t.Fatalf("reactivation must not cycle the window: %+v", s)
	}
	// The reactivated instance allocates again.
	h := mgr.Router().NewHandleOn(victim)
	off, ok := h.Alloc(per.MinSize)
	if !ok {
		t.Fatal("alloc on the reactivated instance failed")
	}
	h.Free(off)
	for _, off := range offs {
		mgr.Free(off)
	}
}
