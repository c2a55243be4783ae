package stack_test

import (
	"testing"

	"repro/internal/elastic"
	"repro/internal/frontend"
	"repro/internal/stack"
)

// TestMappedSpecValidation pins the composition rules: mapped backing
// lives at the router (Instances >= 1), and composes with the elastic
// manager.
func TestMappedSpecValidation(t *testing.T) {
	if _, err := stack.Build(stack.Spec{Variant: "4lvl-nb", Per: per, Mapped: true}); err == nil {
		t.Fatal("Mapped without the multi router must be rejected")
	}
	st, err := stack.Build(stack.Spec{
		Variant: "4lvl-nb", Per: per, Instances: 2,
		Elastic: &elastic.Config{},
		Mapped:  true,
	})
	if err != nil {
		t.Fatalf("Elastic+Mapped must build: %v", err)
	}
	if st.Mem == nil {
		t.Fatal("mapped stack carries no region")
	}
}

// TestMappedElasticMaterializedBytes drives the full composition: byte
// windows over an elastic fleet whose backing follows the
// commit/decommit lifecycle. Chunks written at the peak survive the
// drain of *other* instances, a retired window decommits, and a
// re-growth recommits it with zeroed, usable bytes.
func TestMappedElasticMaterializedBytes(t *testing.T) {
	st, err := stack.Build(stack.Spec{
		Variant: "4lvl-nb", Per: per, Instances: 2,
		Elastic: &elastic.Config{MinInstances: 1, MaxInstances: 2},
		Mapped:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := st.Elastic

	// Write through a mapped window on each instance.
	offs := map[int]uint64{}
	for k := 0; k < 2; k++ {
		h := st.Multi.NewHandleOn(k)
		off, ok := h.Alloc(256)
		if !ok {
			t.Fatalf("alloc on instance %d failed", k)
		}
		offs[k] = off
		buf := st.Bytes(off)
		for i := range buf {
			buf[i] = byte(0xA0 + k)
		}
	}

	// Free instance 1's chunk and shrink: slot 1 drains, retires, and its
	// window decommits; slot 0's bytes are untouched.
	st.Top.Free(offs[1])
	if _, err := mgr.Shrink(); err != nil {
		t.Fatal(err)
	}
	mgr.Poll()
	if st.Multi.Instances() != 1 {
		t.Fatalf("Instances = %d after shrink, want 1", st.Multi.Instances())
	}
	if st.Mem.Committed(1) {
		t.Fatal("retired slot 1's window is still committed")
	}
	if buf := st.Bytes(offs[0]); buf[0] != 0xA0 || buf[len(buf)-1] != 0xA0 {
		t.Fatal("surviving instance's bytes were disturbed by the retirement")
	}

	// Bytes on an offset of the retired window must panic, not fault.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Bytes on a retired window did not panic")
			}
		}()
		st.Bytes(offs[1])
	}()

	// Re-grow into the hole: the window recommits zeroed and serves bytes
	// again.
	k, err := mgr.Grow()
	if err != nil {
		t.Fatal(err)
	}
	if k != 1 {
		t.Fatalf("grow refilled slot %d, want the hole 1", k)
	}
	if s := st.Mem.Stats(); s.Recommits != 1 {
		t.Fatalf("grow into the hole must recommit: %+v", s)
	}
	h := st.Multi.NewHandleOn(1)
	off, ok := h.Alloc(256)
	if !ok {
		t.Fatal("alloc on the regrown instance failed")
	}
	buf := st.Bytes(off)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("recommitted window handed out non-zero bytes")
		}
	}
	h.Free(off)
	st.Top.Free(offs[0])
}

// TestDepotDrainsBeforeWindowDecommit is the ordering fence end-to-end:
// a draining instance whose chunks idle in workers' magazines cannot
// retire — and therefore cannot decommit — until the drain fence makes
// the workers flush them, and a chunk pinned outside the magazines keeps
// the window committed through any number of polls.
func TestDepotDrainsBeforeWindowDecommit(t *testing.T) {
	st, err := stack.Build(stack.Spec{
		Variant: "4lvl-nb", Per: per, Instances: 2,
		Elastic: &elastic.Config{MinInstances: 1, MaxInstances: 2},
		Depot:   true,
		Mapped:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, fe, m := st.Elastic, st.Frontend, st.Multi

	// Pin one chunk per instance at the router level (outside the
	// front-end, so no magazine can absorb the free).
	pins := map[int]uint64{}
	for k := 0; k < 2; k++ {
		h := m.NewHandleOn(k)
		off, ok := h.Alloc(per.MinSize)
		if !ok {
			t.Fatalf("pin alloc on instance %d failed", k)
		}
		pins[k] = off
	}

	// Worker k parks instance-k chunks in its magazine: fewer than a
	// magazine holds, so none drains, and the worker then goes idle.
	const parked = frontend.DefaultMagazine / 2
	workers := make([]*frontend.Handle, 2)
	for k := range workers {
		rh := m.NewHandleOn(k)
		workers[k] = fe.NewHandle().(*frontend.Handle)
		for i := 0; i < parked; i++ {
			off, ok := rh.Alloc(128)
			if !ok {
				t.Fatalf("alloc on instance %d failed", k)
			}
			workers[k].Free(off)
		}
	}

	victim, err := mgr.Shrink()
	if err != nil {
		t.Fatal(err)
	}
	// The Shrink step armed the drain fence, but the workers are idle:
	// the parked chunks stay live, and the window MUST stay committed.
	for i := 0; i < 3; i++ {
		mgr.Poll()
	}
	if got := m.InstanceInfos()[victim].Live; got != 1+parked {
		t.Fatalf("victim live = %d with idle workers, want the pin and %d parked", got, parked)
	}
	if !st.Mem.Committed(victim) {
		t.Fatal("window decommitted while idle magazines still held its chunks")
	}

	// One operation per worker trips the fence: the victim's chunks go
	// back down and only the pin keeps the window committed.
	for _, w := range workers {
		off, ok := w.Alloc(128)
		if !ok {
			t.Fatal("worker alloc after the drain started failed")
		}
		w.Free(off)
	}
	if got := m.InstanceInfos()[victim].Live; got != 1 {
		t.Fatalf("victim live = %d after the fence flushed the workers, want just the pin", got)
	}
	for i := 0; i < 3; i++ {
		mgr.Poll()
	}
	if !st.Mem.Committed(victim) {
		t.Fatal("window decommitted while a live chunk still referenced it")
	}
	if c := mgr.Counters(); c.Retires != 0 {
		t.Fatalf("retired with a live pin: %+v", c)
	}

	// Unpin: the next poll retires and decommits.
	m.Free(pins[victim])
	mgr.Poll()
	if st.Mem.Committed(victim) {
		t.Fatal("window still committed after the drained instance retired")
	}
	if s := st.Mem.Stats(); s.Decommits != 1 {
		t.Fatalf("decommit accounting: %+v", s)
	}
}
