//go:build linux

package stack_test

import (
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/frontend"
	"repro/internal/mem"
	"repro/internal/multi"
	"repro/internal/stack"
)

func rssBytes(t *testing.T) uint64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	pages, err := strconv.ParseUint(strings.Fields(string(data))[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * uint64(syscall.Getpagesize())
}

// TestMappedSawtoothAccountingReconciles drives one burst sawtooth —
// ramp to the peak, hold, drain to near-empty, hold — through a mapped
// depot+elastic stack and checks, at every lifecycle edge, that the
// three views of committed memory agree: the region's own Stats, the
// published-slot count times the window size, and the mem_* keys the
// router surfaces through LayerStats. On this platform (the mapped
// backend is real) the process RSS must also fall with the decommits.
func TestMappedSawtoothAccountingReconciles(t *testing.T) {
	perBig := alloc.Config{Total: 4 << 20, MinSize: 64, MaxSize: 1 << 14}
	const floor, cap_ = 1, 4
	st, err := stack.Build(stack.Spec{
		Variant: "4lvl-nb", Per: perBig, Instances: 2,
		Elastic: &elastic.Config{MinInstances: floor, MaxInstances: cap_},
		Mapped:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, m := st.Elastic, st.Multi
	// The front-end goes on by hand, at 8-chunk magazines and with the
	// depot drain hook stack.Build would register. At the default 32 the
	// depot keeps up to 8 magazines of 32 16 KiB chunks (4 MiB) parked
	// after the drain: they count as live, hold utilization above
	// elastic.LowWater, and the fleet stops above its floor until a Scrub.
	fe, err := frontend.New(st.Top, 8)
	if err != nil {
		t.Fatal(err)
	}
	mgr.OnDrainRange(fe.DrainDepotRange)

	reconcile := func(phase string) {
		t.Helper()
		published := 0
		for _, info := range m.InstanceInfos() {
			if info.State != multi.Retired {
				published++
			}
		}
		s := st.Mem.Stats()
		if want := uint64(published) * st.Mem.WindowSize(); s.CommittedBytes != want {
			t.Fatalf("%s: region committed %d bytes, want %d (%d published slots)",
				phase, s.CommittedBytes, want, published)
		}
		var extra map[string]uint64
		for _, layer := range st.LayerStats() {
			if _, ok := layer.Extra["mem_committed"]; ok {
				extra = layer.Extra
				break
			}
		}
		if extra == nil {
			t.Fatalf("%s: no layer surfaces mem_* accounting", phase)
		}
		if extra["mem_committed"] != s.CommittedBytes ||
			extra["mem_reserved"] != s.ReservedBytes ||
			extra["mem_decommits"] != s.Decommits ||
			extra["mem_recommits"] != s.Recommits {
			t.Fatalf("%s: LayerStats %v does not reconcile with region %+v", phase, extra, s)
		}
	}
	reconcile("start")

	debug.FreeOSMemory()
	rssStart := rssBytes(t)

	// Ramp: allocate 16KiB chunks, polling so the manager can grow, until
	// the fleet hits the cap and utilization is high.
	h := fe.NewHandle()
	var live []uint64
	for i := 0; i < 4096 && (m.Instances() < cap_ || mgr.Utilization() < 0.8); i++ {
		off, ok := h.Alloc(16 << 10)
		if !ok {
			mgr.Poll()
			if off, ok = h.Alloc(16 << 10); !ok {
				break
			}
		}
		live = append(live, off)
		mgr.Poll()
	}
	if m.Instances() != cap_ {
		t.Fatalf("ramp did not grow the fleet to the cap: %d instances", m.Instances())
	}
	reconcile("peak")
	debug.FreeOSMemory()
	rssPeak := rssBytes(t)
	if want := rssStart + 6<<20; rssPeak < want {
		t.Fatalf("peak RSS %d below start %d + committed growth (want >= %d)", rssPeak, rssStart, want)
	}

	// Drain: free everything, then poll the fleet back to the floor.
	for _, off := range live {
		h.Free(off)
	}
	if fh, ok := h.(interface{ Flush() }); ok {
		fh.Flush()
	}
	for i := 0; i < 16 && m.Instances() > floor; i++ {
		mgr.Poll()
	}
	if got := m.Instances(); got != floor {
		t.Fatalf("drain did not retire to the floor: %d instances", got)
	}
	for _, info := range m.InstanceInfos() {
		if info.State == multi.Draining {
			t.Fatalf("slot %d still draining after the drained sawtooth (live=%d)", info.Slot, info.Live)
		}
	}
	reconcile("trough")
	s := st.Mem.Stats()
	if s.Decommits < cap_-floor {
		t.Fatalf("expected at least %d decommits, got %+v", cap_-floor, s)
	}
	debug.FreeOSMemory()
	rssEnd := rssBytes(t)
	if rssEnd > rssPeak-6<<20 {
		t.Fatalf("retirement did not return RSS: peak %d, end %d (want <= peak - %d)", rssPeak, rssEnd, 6<<20)
	}
	if !mem.Mapped() {
		t.Fatal("linux build must report a mapped backend")
	}
}
