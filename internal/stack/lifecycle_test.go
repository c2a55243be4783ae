package stack_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/multi"
	"repro/internal/stack"
)

// TestElasticRetireWithIdleParkedWorker is the regression test for the
// magazine-stall bug: a worker handle parks chunks from a draining
// instance's window in its front-end magazines and then goes idle (but
// stays alive). Before the drain fence, those parked chunks kept the
// victim's live count above zero forever — retirement only completed
// after a quiescent Scrub. With the fence, the worker's next operation
// (any operation, on any window) flushes the overlapping magazines, and
// the following Poll retires the slot. No Scrub anywhere in this test.
func TestElasticRetireWithIdleParkedWorker(t *testing.T) {
	t.Parallel()
	st, err := stack.Build(stack.Spec{
		Variant:   "4lvl-nb",
		Per:       alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16},
		Instances: 2,
		Elastic:   &elastic.Config{MinInstances: 1, MaxInstances: 2},
		Depot:     true,
	})
	if err != nil {
		t.Fatalf("stack.Build: %v", err)
	}
	span := st.Multi.InstanceSpan()

	const size = 1024
	worker := st.Top.NewHandle()
	offs := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		off, ok := worker.Alloc(size)
		if !ok {
			t.Fatalf("worker alloc %d failed", i)
		}
		offs = append(offs, off)
	}
	victim := int(offs[0] / span)
	for _, off := range offs {
		if int(off/span) != victim {
			t.Fatalf("worker allocations split across instances (%d and %d); the test needs one affine window", victim, off/span)
		}
	}

	// Pin the other slot with more live bytes so the forced Shrink picks
	// the worker's window as the least-utilized victim.
	other := 1 - victim
	pin := st.Multi.NewHandleOn(other)
	pinOffs := make([]uint64, 0, 16)
	for i := 0; i < 16; i++ {
		off, ok := pin.Alloc(size)
		if !ok {
			t.Fatalf("pin alloc %d failed", i)
		}
		if int(off/span) != other {
			t.Fatalf("pin allocation landed on slot %d, want %d", off/span, other)
		}
		pinOffs = append(pinOffs, off)
	}

	// Park six of the worker's chunks in its magazine (capacity
	// frontend.DefaultMagazine, so nothing drains) and release the rest
	// through the convenience path, which goes straight down. The victim window now
	// has live chunks held only inside the idle worker's magazines.
	for _, off := range offs[:6] {
		worker.Free(off)
	}
	for _, off := range offs[6:] {
		st.Top.Free(off)
	}

	got, err := st.Elastic.Shrink()
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if got != victim {
		t.Fatalf("Shrink drained slot %d, want %d", got, victim)
	}

	// The worker is idle: Poll alone must not retire the slot (the
	// parked chunks are still live), and before the fence it never would.
	st.Elastic.Poll()
	if s := st.Multi.InstanceInfos()[victim].State; s != multi.Draining {
		t.Fatalf("slot %d state after idle Poll = %v, want Draining", victim, s)
	}

	// One operation on the worker — an allocation that cannot even be
	// served from the draining window — trips the fence and flushes the
	// parked magazines back down.
	off, ok := worker.Alloc(size)
	if !ok {
		t.Fatal("worker alloc after drain start failed")
	}
	if int(off/span) == victim {
		t.Fatalf("draining slot %d served a new allocation", victim)
	}

	st.Elastic.Poll()
	if s := st.Multi.InstanceInfos()[victim].State; s != multi.Retired {
		t.Fatalf("slot %d state after fence flush + Poll = %v, want Retired", victim, s)
	}

	worker.Free(off)
	for _, o := range pinOffs {
		pin.Free(o)
	}
}

// TestHandleRegistriesStayFlat is the regression test for the
// monotonically-growing handle registries: every layer now implements
// alloc.HandleCloser, so a create/use/close cycle returns each layer's
// registry to its baseline size instead of leaking an entry per worker.
func TestHandleRegistriesStayFlat(t *testing.T) {
	t.Parallel()
	st, err := stack.Build(stack.Spec{
		Variant:   "4lvl-nb",
		Per:       alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16},
		Instances: 2,
		Depot:     true,
		Slab:      true,
	})
	if err != nil {
		t.Fatalf("stack.Build: %v", err)
	}
	leaf, ok := st.Multi.Instance(0).(interface{ Handles() int })
	if !ok {
		t.Fatalf("leaf %s does not expose Handles()", st.Multi.Instance(0).Name())
	}

	cycle := func() {
		h := st.Top.NewHandle()
		defer alloc.CloseHandle(h)
		var offs []uint64
		for _, size := range []uint64{64, 192, 1024, 1 << 15} {
			for i := 0; i < 4; i++ {
				if off, ok := h.Alloc(size); ok {
					offs = append(offs, off)
				}
			}
		}
		for _, off := range offs {
			h.Free(off)
		}
	}

	// One warm-up cycle populates the lazily created shared state
	// (convenience-path pools, per-slot sub-handles), then the baseline
	// is recorded and every further cycle must return to it exactly.
	cycle()
	base := []struct {
		layer string
		count func() int
	}{
		{"slab", st.Slab.Handles},
		{"frontend", st.Frontend.Handles},
		{"multi", st.Multi.Handles},
		{"leaf", leaf.Handles},
	}
	want := make([]int, len(base))
	for i, b := range base {
		want[i] = b.count()
	}

	const cycles = 32
	for c := 0; c < cycles; c++ {
		cycle()
		for i, b := range base {
			if got := b.count(); got != want[i] {
				t.Fatalf("cycle %d: %s registry has %d handles, want the baseline %d", c, b.layer, got, want[i])
			}
		}
	}
}
