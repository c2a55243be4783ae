package multi

import (
	"errors"
	"syscall"
	"testing"

	"repro/internal/alloc"
	"repro/internal/fault"
	"repro/internal/mem"

	_ "repro/internal/bunch"
)

var faultCfg = alloc.Config{Total: 1 << 12, MinSize: 64, MaxSize: 1 << 10}

// mappedRouter builds a live-tracked router backed by a region whose
// lifecycle calls route through a fresh (initially empty) injector.
func mappedRouter(t *testing.T, count int) (*Multi, *mem.Region, *fault.Injector) {
	t.Helper()
	m, err := New("1lvl-nb", count, faultCfg, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLiveTracking()
	in := fault.New(1)
	r, err := mem.New(m.InstanceSpan(), m.Slots(), mem.WithFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.BindMemory(r); err != nil {
		t.Fatal(err)
	}
	return m, r, in
}

// TestAddInstanceCommitFailureLeavesNoTrace pins the memory-first grow
// order: when the window commit fails, no instance was constructed, the
// table is untouched, and a retry grows cleanly.
func TestAddInstanceCommitFailureLeavesNoTrace(t *testing.T) {
	m, r, in := mappedRouter(t, 2)
	slots, id := m.Slots(), m.nextID

	in.Set(fault.FailAlways(fault.Commit, syscall.ENOMEM))
	if _, err := m.AddInstance(); !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("AddInstance under commit fault = %v, want ENOMEM", err)
	}
	if m.Slots() != slots || m.Instances() != 2 {
		t.Fatalf("failed grow mutated the table: slots=%d instances=%d", m.Slots(), m.Instances())
	}
	if m.nextID != id {
		t.Fatal("failed grow constructed an instance before committing memory")
	}
	if s := r.Stats(); s.CommitFails != 1 || s.CommittedBytes != 2*m.InstanceSpan() {
		t.Fatalf("region stats after failed grow: %+v", s)
	}

	in.Clear()
	k, err := m.AddInstance()
	if err != nil {
		t.Fatalf("grow retry: %v", err)
	}
	if !r.Committed(k) {
		t.Fatalf("retried grow left window %d uncommitted", k)
	}
}

// TestAddInstanceRollsBackCommitOnBuildFailure is the regression test for
// the partial-grow leak: a buildSlot failure after the window commit must
// decommit the window and publish nothing.
func TestAddInstanceRollsBackCommitOnBuildFailure(t *testing.T) {
	m, r, _ := mappedRouter(t, 2)

	// Open a hole so the failed grow targets a known slot index.
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}
	if done, err := m.TryRetire(1); err != nil || !done {
		t.Fatalf("TryRetire = (%v, %v)", done, err)
	}
	if r.Committed(1) {
		t.Fatal("retired window still committed")
	}

	variant := m.variant
	m.variant = "no-such-variant"
	_, err := m.AddInstance()
	m.variant = variant
	if err == nil {
		t.Fatal("AddInstance with an unbuildable variant must fail")
	}
	if m.Instances() != 1 {
		t.Fatalf("failed grow published an instance: %d", m.Instances())
	}
	if r.Committed(1) {
		t.Fatal("buildSlot failure leaked a committed window behind the unpublished slot")
	}

	// The hole is still growable once the environment is sane again.
	k, err := m.AddInstance()
	if err != nil || k != 1 {
		t.Fatalf("grow after rollback = (%d, %v)", k, err)
	}
	if !r.Committed(1) {
		t.Fatal("grow after rollback left the window uncommitted")
	}
}

// TestTryRetireDecommitFailureKeepsSlotDraining pins the recoverable
// retire order: a decommit failure must NOT unpublish the slot — it stays
// draining with its window committed, and the next pass retries.
func TestTryRetireDecommitFailureKeepsSlotDraining(t *testing.T) {
	m, r, in := mappedRouter(t, 2)
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}

	in.Set(fault.FailAlways(fault.Decommit, syscall.EAGAIN))
	done, err := m.TryRetire(1)
	if done || !errors.Is(err, syscall.EAGAIN) {
		t.Fatalf("TryRetire under decommit fault = (%v, %v), want (false, EAGAIN)", done, err)
	}
	if m.Instances() != 2 {
		t.Fatal("failed retire unpublished the slot")
	}
	if infos := m.InstanceInfos(); infos[1].State != Draining {
		t.Fatalf("slot 1 state after failed retire = %v, want Draining", infos[1].State)
	}
	if !r.Committed(1) {
		t.Fatal("failed retire decommitted the window anyway")
	}
	// Frees (and a change of heart) still work: the slot is fully alive.
	if err := m.Reactivate(1); err != nil {
		t.Fatalf("Reactivate after failed retire: %v", err)
	}
	if err := m.StartDrain(1); err != nil {
		t.Fatal(err)
	}

	in.Clear()
	done, err = m.TryRetire(1)
	if err != nil || !done {
		t.Fatalf("TryRetire after schedule cleared = (%v, %v)", done, err)
	}
	if r.Committed(1) || m.Instances() != 1 {
		t.Fatal("recovered retire did not decommit and unpublish")
	}
}
