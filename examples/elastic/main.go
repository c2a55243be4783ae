// Elastic: pressure-driven capacity behind the multi-instance router,
// backed by mapped memory so the shrink is visible to the OS.
//
// A fixed buddy region forces a choice for bursty traffic: provision for
// the peak (and waste the trough) or provision for the trough (and fail
// at the peak). This demo builds a 2-instance deployment with an elastic
// capacity manager capped at 4 over mapped windows (Backing.Mapped),
// then drives one full burst cycle through it:
//
//  1. Ramp: allocations pile up past the high watermark; explicit Poll
//     steps let the manager observe the pressure and publish fresh
//     instances, each commit touching its window into residency (the
//     burst is absorbed instead of failing — and RSS grows with it).
//  2. Quiet: everything is freed; Polls observe the idle fleet, mark the
//     surplus instances draining, and — once their live counts hit
//     zero — unpublish them and DECOMMIT their windows: committed bytes
//     and, on Linux, the process RSS measured via /proc/self/statm drop
//     back. This is the property PR 4 could not deliver with a fixed
//     region: peak RSS is no longer permanent.
//  3. Re-burst: pressure returns; grows refill the retired holes and
//     recommit their windows, proving decommitted capacity comes back.
//
// The program asserts each phase (growth, RSS/committed drop, recommit
// recovery) and exits non-zero otherwise, so it doubles as an end-to-end
// check — CI's gate that elastic retirement really returns memory.
// Poll is used instead of the background Start/Stop goroutine to keep
// every transition visible and deterministic.
package main

import (
	"fmt"
	"log"
	"os"

	nbbs "repro"
)

const (
	floor    = 2       // initial and minimum instances
	cap_     = 4       // elastic ceiling
	perTotal = 8 << 20 // bytes per instance window: big enough to dominate RSS noise
	chunk    = 16 << 10
)

func committed(b *nbbs.Buddy) uint64 {
	s, ok := b.MemStats()
	if !ok {
		log.Fatal("stack reports no mapped-memory accounting")
	}
	return s.CommittedBytes
}

// ramp allocates chunks, polling as it goes, until the fleet reaches the
// cap; it returns the live offsets.
func ramp(b *nbbs.Buddy, h nbbs.Handle, mgr *nbbs.ElasticManager, phase string) []uint64 {
	var live []uint64
	for i := 0; b.Instances() < cap_ && i < 8192; i++ {
		off, ok := h.Alloc(chunk)
		if !ok {
			// The current fleet is saturated mid-ramp: give the manager a
			// chance to publish capacity and retry.
			mgr.Poll()
			if off, ok = h.Alloc(chunk); !ok {
				log.Fatalf("%s allocation failed at %d instances, utilization %.0f%%",
					phase, b.Instances(), mgr.Utilization()*100)
			}
		}
		live = append(live, off)
		if act := mgr.Poll(); act.Grew >= 0 || act.Reactivated >= 0 {
			slot := act.Grew
			if slot < 0 {
				slot = act.Reactivated
			}
			fmt.Printf("%s: %4d chunks live, utilization %3.0f%% -> grew instance slot %d (now %d instances, %d MiB committed)\n",
				phase, len(live), act.Utilization*100, slot, b.Instances(), committed(b)>>20)
		}
	}
	return live
}

// quiet frees everything and polls the fleet back down to the floor.
func quiet(b *nbbs.Buddy, h nbbs.Handle, mgr *nbbs.ElasticManager, live []uint64) {
	for _, off := range live {
		h.Free(off)
	}
	for i := 0; i < 16 && b.Instances() > floor; i++ {
		act := mgr.Poll()
		if act.DrainStarted >= 0 {
			fmt.Printf("quiet: utilization %3.0f%% -> draining slot %d\n", act.Utilization*100, act.DrainStarted)
		}
		for _, k := range act.Retired {
			fmt.Printf("quiet: slot %d reached zero live chunks -> retired+decommitted (now %d instances, %d MiB committed)\n",
				k, b.Instances(), committed(b)>>20)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	b, err := nbbs.New(nbbs.Config{
		Total: perTotal, MinSize: 64, MaxSize: chunk,
		Backing: nbbs.BackingConfig{Instances: floor, Mapped: true},
		Elastic: &nbbs.ElasticConfig{MinInstances: floor, MaxInstances: cap_},
	})
	if err != nil {
		log.Fatal(err)
	}
	mgr := b.Elastic()
	backing := "portable fallback (committed-bytes assertions only)"
	if nbbs.MappedBacking() {
		backing = "platform mapped (RSS assertions live)"
	}
	fmt.Printf("deployment: %s\n", b.Name())
	fmt.Printf("backing: %s\n", backing)
	fmt.Printf("start: %d instances (floor %d, cap %d), %d MiB committed\n\n",
		b.Instances(), floor, cap_, committed(b)>>20)

	_, haveRSS := rss()
	committedStart := committed(b)

	// Phase 1 — the burst.
	h := b.NewHandle()
	live := ramp(b, h, mgr, "burst")
	peak := b.Instances()
	committedPeak := committed(b)
	rssPeak, _ := rss()
	fmt.Printf("peak: %d instances serving %d live chunks (utilization %.0f%%, %d MiB committed",
		peak, len(live), mgr.Utilization()*100, committedPeak>>20)
	if haveRSS {
		fmt.Printf(", RSS %d MiB", rssPeak>>20)
	}
	fmt.Printf(")\n\n")
	if peak <= floor {
		fail("the burst never grew the fleet above the floor (%d instances)", peak)
	}
	if committedPeak <= committedStart {
		fail("growth did not commit memory: %d -> %d bytes", committedStart, committedPeak)
	}

	// Phase 2 — the quiet period: drain, retire, decommit.
	quiet(b, h, mgr, live)
	if b.Instances() != floor {
		fail("fleet did not return to the floor: %d instances, want %d", b.Instances(), floor)
	}
	committedTrough := committed(b)
	if want := committedPeak - uint64(peak-floor)*perTotal; committedTrough != want {
		fail("retirement did not decommit the surplus windows: %d bytes committed, want %d", committedTrough, want)
	}
	rssTrough, _ := rss()
	fmt.Printf("\ntrough: %d instances, %d MiB committed", b.Instances(), committedTrough>>20)
	if haveRSS {
		fmt.Printf(", RSS %d MiB", rssTrough>>20)
	}
	fmt.Printf("\n")
	if haveRSS {
		// The decommits returned (peak-floor) windows; demand at least half
		// of that back in RSS so runtime noise cannot mask a regression
		// where decommit stops reaching the OS.
		wantDrop := uint64(peak-floor) * perTotal / 2
		if rssTrough+wantDrop > rssPeak {
			fail("RSS did not drop after retirement: peak %d MiB, trough %d MiB (want a drop >= %d MiB)",
				rssPeak>>20, rssTrough>>20, wantDrop>>20)
		}
		fmt.Printf("rss: burst peak %d MiB -> quiet trough %d MiB (decommit returned the pages)\n",
			rssPeak>>20, rssTrough>>20)
	}

	// Phase 3 — the re-burst: the retired holes recommit and serve again.
	live = ramp(b, h, mgr, "re-burst")
	ms, _ := b.MemStats()
	if b.Instances() <= floor {
		fail("the re-burst never regrew the fleet")
	}
	if committed(b) <= committedTrough {
		fail("re-growth did not recommit windows")
	}
	if ms.Recommits == 0 {
		fail("re-growth should have recommitted a decommitted hole (recommits=0)")
	}
	fmt.Printf("\nre-burst: %d instances again, %d MiB committed, %d windows recommitted\n",
		b.Instances(), committed(b)>>20, ms.Recommits)
	quiet(b, h, mgr, live)

	c := mgr.Counters()
	ms, _ = b.MemStats()
	fmt.Printf("\nlifecycle: grows=%d reactivations=%d drains=%d retires=%d denied_at_cap=%d over %d polls\n",
		c.Grows, c.Reactivations, c.Drains, c.Retires, c.DeniedAtCap, c.Polls)
	fmt.Printf("memory:    commits=%d decommits=%d recommits=%d\n", ms.Commits, ms.Decommits, ms.Recommits)
	fmt.Printf("end: %d instances, %d MiB committed\n", b.Instances(), committed(b)>>20)
	if b.Instances() != floor {
		fail("fleet did not return to the floor: %d instances, want %d", b.Instances(), floor)
	}
	fmt.Println("OK: burst absorbed by growth, retirement returned memory to the OS, re-burst recommitted it")
}
