package mem_test

import (
	"errors"
	"syscall"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
)

// TestInjectedLifecycleFailures drives each fault site through a Region
// and pins the degradation contract: a failed transition leaves the
// window in its prior state, is counted, and a clean retry succeeds.
func TestInjectedLifecycleFailures(t *testing.T) {
	const winSize = 1 << 16

	for _, tc := range []struct {
		name string
		rule fault.Rule
		run  func(t *testing.T, r *mem.Region, in *fault.Injector)
	}{
		{
			name: "commit failure leaves window reserved, retry succeeds",
			rule: fault.FailNth(fault.Commit, 1, syscall.ENOMEM),
			run: func(t *testing.T, r *mem.Region, in *fault.Injector) {
				err := r.Commit(0)
				if !errors.Is(err, syscall.ENOMEM) {
					t.Fatalf("Commit = %v, want ENOMEM", err)
				}
				if r.Committed(0) {
					t.Fatal("failed commit left the window committed")
				}
				if s := r.Stats(); s.CommitFails != 1 || s.Commits != 0 || s.CommittedBytes != 0 {
					t.Fatalf("stats after failed commit: %+v", s)
				}
				if err := r.Commit(0); err != nil {
					t.Fatalf("retry after Nth-commit fault: %v", err)
				}
				if !r.Committed(0) {
					t.Fatal("retry did not commit")
				}
			},
		},
		{
			name: "decommit failure keeps window committed, clears and retires",
			rule: fault.FailAlways(fault.Decommit, syscall.EAGAIN),
			run: func(t *testing.T, r *mem.Region, in *fault.Injector) {
				if err := r.Commit(0); err != nil {
					t.Fatal(err)
				}
				err := r.Decommit(0)
				if !errors.Is(err, syscall.EAGAIN) {
					t.Fatalf("Decommit = %v, want EAGAIN", err)
				}
				if !r.Committed(0) {
					t.Fatal("failed decommit flipped the window to decommitted")
				}
				if s := r.Stats(); s.DecommitFails != 1 || s.Decommits != 0 || s.CommittedBytes != winSize {
					t.Fatalf("stats after failed decommit: %+v", s)
				}
				// The window stayed usable through the failure.
				r.Window(0)[0] = 1
				in.Clear()
				if err := r.Decommit(0); err != nil {
					t.Fatalf("decommit after schedule cleared: %v", err)
				}
				if r.Committed(0) {
					t.Fatal("decommit after recovery did not take")
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := fault.New(1, tc.rule)
			r, err := mem.New(winSize, 1, mem.WithFaultInjector(in))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Release()
			if got := r.Injector(); got != in {
				t.Fatal("Injector() does not return the installed injector")
			}
			tc.run(t, r, in)
		})
	}
}

// TestInjectedReserveFailure pins that Ensure surfaces a reserve fault
// without growing the region, and that New propagates it.
func TestInjectedReserveFailure(t *testing.T) {
	in := fault.New(1, fault.FailNth(fault.Reserve, 2, syscall.ENOMEM))
	r, err := mem.New(1<<16, 1, mem.WithFaultInjector(in))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if err := r.Ensure(3); !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("Ensure under reserve fault = %v, want ENOMEM", err)
	}
	if got := r.Windows(); got != 1 {
		t.Fatalf("failed Ensure left %d windows, want 1", got)
	}
	if s := r.Stats(); s.ReserveFails != 1 {
		t.Fatalf("stats after reserve fault: %+v", s)
	}
	// The schedule has passed its Nth call; the same Ensure now succeeds.
	if err := r.Ensure(3); err != nil {
		t.Fatalf("Ensure retry: %v", err)
	}

	if _, err := mem.New(1<<16, 1, mem.WithFaultInjector(
		fault.New(1, fault.FailNth(fault.Reserve, 1, syscall.ENOMEM)))); err == nil {
		t.Fatal("New must propagate a reserve fault")
	}
}

// TestProbabilisticScheduleReplays runs a seeded probabilistic schedule
// against a region, then replays its record against a fresh region and
// requires the identical outcome sequence — the incident-artifact
// contract end to end through real call sites.
func TestProbabilisticScheduleReplays(t *testing.T) {
	drive := func(in *fault.Injector) []bool {
		r, err := mem.New(1<<16, 4, mem.WithFaultInjector(in))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Release()
		var out []bool
		for pass := 0; pass < 16; pass++ {
			for k := 0; k < 4; k++ {
				out = append(out, r.Commit(k) != nil)
			}
			for k := 0; k < 4; k++ {
				out = append(out, r.Decommit(k) != nil)
			}
		}
		return out
	}

	in := fault.New(99,
		fault.FailProb(fault.Commit, 0.25, syscall.ENOMEM),
		fault.FailProb(fault.Decommit, 0.25, syscall.EAGAIN))
	first := drive(in)
	rec := in.Record()
	if len(rec) == 0 {
		t.Fatal("probabilistic schedule injected nothing over 128 calls")
	}
	second := drive(fault.Replay(rec))
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at lifecycle call %d", i)
		}
	}
}
