package elastic_test

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/multi"
)

// steered is a manager over a Fixed-routing router plus one handle whose
// chunks fill slot 0 first and spill into the higher slots in order, so
// the highest active slots always hold the fewest live bytes.
type steered struct {
	mgr  *elastic.Manager
	h    alloc.Handle
	offs []uint64
}

func newSteered(t *testing.T, cfg elastic.Config) *steered {
	t.Helper()
	m, err := multi.New("4lvl-nb", 2, per, multi.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := elastic.New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &steered{mgr: mgr, h: mgr.NewHandle()}
}

// to allocates 1 KiB chunks until utilization reaches u, or frees the
// newest ones until it is at most u.
func (s *steered) to(t *testing.T, u float64) {
	t.Helper()
	for s.mgr.Utilization() < u {
		off, ok := s.h.Alloc(1 << 10)
		if !ok {
			t.Fatalf("alloc failed at utilization %.2f (target %.2f)", s.mgr.Utilization(), u)
		}
		s.offs = append(s.offs, off)
	}
	for s.mgr.Utilization() > u && len(s.offs) > 0 {
		s.h.Free(s.offs[len(s.offs)-1])
		s.offs = s.offs[:len(s.offs)-1]
	}
}

// leastLiveActive is the drain victim the rule must pick: the active slot
// with the fewest live bytes, the lowest index on a tie.
func leastLiveActive(m *multi.Multi) int {
	victim, best := -1, int64(0)
	for _, info := range m.InstanceInfos() {
		if info.State == multi.Active && (victim < 0 || info.LiveBytes < best) {
			victim, best = info.Slot, info.LiveBytes
		}
	}
	return victim
}

// TestWatermarkPolicyDefaults pins the zero-value rule: the fleet bounds
// default to one instance and twice the initial set, and the constant
// watermarks and hysteresis are in effect, so the first Poll above 0.75
// holds and the second grows.
func TestWatermarkPolicyDefaults(t *testing.T) {
	s := newSteered(t, elastic.Config{})
	if c := s.mgr.Config(); c != (elastic.Config{MinInstances: 1, MaxInstances: 4}) {
		t.Fatalf("zero-value config: %+v", c)
	}
	s.to(t, 0.80)
	if act := s.mgr.Poll(); act.Grew >= 0 {
		t.Fatalf("grew on the first poll above the default watermark: %+v", act)
	}
	if act := s.mgr.Poll(); act.Grew < 0 {
		t.Fatalf("no grow on the second poll above the default watermark: %+v", act)
	}
}

// TestWatermarkPolicyStreaks drives the hysteresis rule through Poll: a
// sustained high streak grows, a sustained low streak drains the active
// slot with the fewest live bytes, and any in-between Poll resets both
// streaks.
func TestWatermarkPolicyStreaks(t *testing.T) {
	s := newSteered(t, elastic.Config{MinInstances: 1, MaxInstances: 4})
	const hold, grow, drain = "hold", "grow", "drain"
	steps := []struct {
		u    float64
		want string
	}{
		{0.80, hold}, // first high step: streak 1 of 2
		{0.80, grow}, // second: streak met
		{0.80, hold}, // streak was consumed
		{0.50, hold}, // mid-band resets
		{0.80, hold},
		{0.20, hold}, // a low step also resets the high streak
		{0.20, drain},
		{0.20, hold},
	}
	for i, step := range steps {
		s.to(t, step.u)
		victim := leastLiveActive(s.mgr.Router())
		act := s.mgr.Poll()
		got := hold
		switch {
		case act.Grew >= 0 || act.Reactivated >= 0:
			got = grow
		case act.DrainStarted >= 0:
			got = drain
		}
		if got != step.want {
			t.Fatalf("step %d (u=%.2f): %s, want %s (%+v)", i, act.Utilization, got, step.want, act)
		}
		if got == drain && act.DrainStarted != victim {
			t.Fatalf("step %d: drained slot %d, want %d, the active slot with the fewest live bytes", i, act.DrainStarted, victim)
		}
	}
}
