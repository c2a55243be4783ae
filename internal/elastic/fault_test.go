package elastic_test

import (
	"errors"
	"syscall"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/multi"

	_ "repro/internal/bunch"
)

// faultedManager builds an elastic manager over a region whose lifecycle
// calls route through a fresh injector, with a logical clock the test
// advances by hand so backoff decisions are deterministic.
func faultedManager(t *testing.T, instances int, cfg elastic.Config) (*elastic.Manager, *mem.Region, *fault.Injector, *time.Time) {
	t.Helper()
	m, err := multi.New("4lvl-nb", instances, per, multi.RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(1)
	r, err := mem.New(m.InstanceSpan(), m.Slots(), mem.WithFaultInjector(in))
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
	now := time.Unix(0, 0)
	mgr.SetClock(func() time.Time { return now })
	return mgr, r, in, &now
}

// TestGrowErrorCauseDistinguished is the regression test for the error
// conflation: a commit failure must surface its real cause, and only a
// genuine cap refusal reads as ErrAtCap.
func TestGrowErrorCauseDistinguished(t *testing.T) {
	mgr, r, in, now := faultedManager(t, 2, elastic.Config{MaxInstances: 3})

	in.Set(fault.FailAlways(fault.Commit, syscall.ENOMEM))
	_, err := mgr.Grow()
	if err == nil || !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("Grow under commit fault = %v, want the ENOMEM cause", err)
	}
	if errors.Is(err, elastic.ErrAtCap) {
		t.Fatalf("environmental failure reported as at-cap: %v", err)
	}
	c := mgr.Counters()
	if c.GrowFailures != 1 || c.DeniedAtCap != 0 {
		t.Fatalf("counters after failed grow: %+v", c)
	}
	if s := r.Stats(); s.CommitFails != 1 {
		t.Fatalf("region stats: %+v", s)
	}

	// Clear the schedule and let the backoff window lapse, then grow to
	// the cap: the refusal is now ErrAtCap, counted separately, with no
	// environmental cause attached.
	in.Clear()
	*now = now.Add(time.Minute)
	if _, err := mgr.Grow(); err != nil {
		t.Fatalf("grow after recovery: %v", err)
	}
	_, err = mgr.Grow()
	if !errors.Is(err, elastic.ErrAtCap) {
		t.Fatalf("Grow at cap = %v, want ErrAtCap", err)
	}
	if errors.Is(err, syscall.ENOMEM) || errors.Is(err, elastic.ErrBackpressure) {
		t.Fatalf("cap refusal carries a stale cause: %v", err)
	}
	c = mgr.Counters()
	if c.DeniedAtCap != 1 || c.GrowFailures != 1 {
		t.Fatalf("counters after cap refusal: %+v", c)
	}
}

// TestPersistentGrowFailureBacksOff pins the no-hot-spin property: under
// a persistent commit failure, repeated grow pressure produces a bounded
// number of syscall attempts (the backoff gate absorbs the rest as
// ErrBackpressure), and Poll neither wedges nor panics.
func TestPersistentGrowFailureBacksOff(t *testing.T) {
	mgr, r, in, now := faultedManager(t, 1, elastic.Config{MaxInstances: 4})
	in.Set(fault.FailAlways(fault.Commit, syscall.ENOMEM))

	if _, err := mgr.Grow(); !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("first grow = %v, want ENOMEM", err)
	}
	// A burst of grow pressure inside the backoff window: every decision
	// is absorbed by the gate, not the environment.
	for i := 0; i < 50; i++ {
		_, err := mgr.Grow()
		if !errors.Is(err, elastic.ErrBackpressure) {
			t.Fatalf("grow %d inside backoff window = %v, want ErrBackpressure", i, err)
		}
		if !errors.Is(err, syscall.ENOMEM) {
			t.Fatalf("backpressure error lost its cause: %v", err)
		}
	}
	if s := r.Stats(); s.CommitFails != 1 {
		t.Fatalf("%d commit attempts under backoff, want 1 (hot-spin)", s.CommitFails)
	}
	c := mgr.Counters()
	if c.GrowFailures != 1 || c.DeniedBackpressure != 50 {
		t.Fatalf("counters under backoff: %+v", c)
	}

	// Poll keeps serving decisions through the failure: utilization is
	// driven over the high watermark so every Hysteresis-th Poll wants to
	// grow, and the backoff gate must keep syscall attempts far below the
	// Poll count.
	fill(t, mgr, 0.9)
	for i := 0; i < 200; i++ {
		*now = now.Add(elastic.GrowRetryBase / 20) // 200 polls over 10 base backoffs
		mgr.Poll()
	}
	c = mgr.Counters()
	if got := r.Stats().CommitFails; got > 8 {
		t.Fatalf("%d commit attempts over 200 polls — backoff not absorbing (counters %+v)", got, c)
	}
	if c.Polls != 200 {
		t.Fatalf("Poll wedged under persistent failure: %+v", c)
	}
	if c.GrowRetries == 0 {
		t.Fatal("backoff never re-attempted the grow")
	}
	// Allocation under failed grow degrades to deny, never panics: fill
	// the remaining capacity and require a clean nil.
	for i := 0; i < 1<<12; i++ {
		if _, ok := mgr.Alloc(per.MaxSize); !ok {
			break
		}
	}
	if _, ok := mgr.Alloc(per.MaxSize); ok {
		t.Fatal("capacity should be exhausted with growth failing")
	}
}

// TestRecoveryAfterFaultsClear pins the recovery contract: once the
// schedule clears and the backoff window elapses, the next Poll grows
// successfully and the counters reconcile.
func TestRecoveryAfterFaultsClear(t *testing.T) {
	mgr, r, in, now := faultedManager(t, 1, elastic.Config{MaxInstances: 4})
	in.Set(fault.FailAlways(fault.Commit, syscall.ENOMEM))
	fill(t, mgr, 0.9)
	if act := decide(mgr); act.GrowErr == nil {
		t.Fatalf("poll under fault did not record the failure: %+v", act)
	}

	in.Clear()
	*now = now.Add(time.Minute) // well past any backoff window
	act := decide(mgr)
	if act.Grew < 0 {
		t.Fatalf("poll after faults cleared did not grow: %+v", act)
	}
	if !r.Committed(act.Grew) {
		t.Fatalf("recovered grow left window %d uncommitted", act.Grew)
	}
	c := mgr.Counters()
	if c.Grows != 1 || c.GrowFailures != 1 || c.GrowRetries != 1 {
		t.Fatalf("counters after recovery: %+v", c)
	}
	// The fleet is healthy again: the next failure-free Grow hits the cap
	// path or publishes, never the stale backoff gate.
	if _, err := mgr.Grow(); err != nil && !errors.Is(err, elastic.ErrAtCap) {
		t.Fatalf("grow after recovery = %v", err)
	}
}
