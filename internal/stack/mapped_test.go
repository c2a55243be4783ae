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
// a draining instance whose chunks idle in the magazine depot cannot
// retire — and therefore cannot decommit — until the drain hook returns
// them, and a chunk pinned outside the depot keeps the window committed
// through any number of polls.
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

	// Park depot magazines holding instance-0 and instance-1 chunks: three
	// magazines' worth of frees per instance overflow the handle's
	// magazines into the depot.
	for k := 0; k < 2; k++ {
		rh := m.NewHandleOn(k)
		var offs []uint64
		for i := 0; i < 3*frontend.DefaultMagazine; i++ {
			off, ok := rh.Alloc(128)
			if !ok {
				t.Fatalf("alloc on instance %d failed", k)
			}
			offs = append(offs, off)
		}
		fh := fe.NewHandle().(*frontend.Handle)
		for _, off := range offs {
			fh.Free(off)
		}
		// Leave only depot-parked residency: per-worker magazines are
		// single-owner state the drain hook cannot touch, so they are
		// flushed here (the "worker churns or flushes" path).
		fh.Flush()
	}
	if fe.Depot().Retained() == 0 {
		t.Fatal("setup parked nothing in the depot")
	}

	victim, err := mgr.Shrink()
	if err != nil {
		t.Fatal(err)
	}
	// The Shrink step already ran the drain hook: no chunk of the victim's
	// window may still be parked, yet the pinned chunk blocks retirement,
	// so the window MUST still be committed.
	lo := uint64(victim) * m.InstanceSpan()
	hi := lo + m.InstanceSpan()
	if got := m.InstanceInfos()[victim].Live; got != 1 {
		t.Fatalf("victim live = %d after the depot drain, want just the pin", got)
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
	// Nothing of the victim's window survives anywhere in the depot.
	if n := fe.Depot().Retained(); n > 0 {
		for _, mag := range fe.Depot().DrainAll() {
			for _, off := range mag {
				if off >= lo && off < hi {
					t.Fatalf("offset %#x of the decommitted window parked in the depot", off)
				}
			}
		}
	}
}
