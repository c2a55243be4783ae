package chaos

import (
	"reflect"
	"testing"

	_ "repro/internal/bunch"
)

// TestRunHoldsInvariantsAndRecovers is the in-tree slice of the chaos
// gate: a few seeds per composite, full invariant + recovery checks.
// nbbsstress -chaos runs the wide version (25 seeds) in CI.
func TestRunHoldsInvariantsAndRecovers(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for _, composite := range Composites() {
		for _, seed := range []uint64{1, 7, 42} {
			rep := Run(Config{Composite: composite, Seed: seed, Steps: steps})
			if !rep.OK() {
				t.Errorf("%s seed %d: violations=%v recovered=%v (schedule %d faults)",
					composite, seed, rep.Violations, rep.Recovered, len(rep.Schedule))
				continue
			}
			if rep.Injected == 0 {
				t.Errorf("%s seed %d: schedule injected nothing — the run proved nothing", composite, seed)
			}
			if rep.MidDrainKills == 0 {
				t.Errorf("%s seed %d: the mid-drain kill scenario did not run", composite, seed)
			}
		}
	}
}

// TestScheduleArmsOnlyReachedSites pins that the generated schedule arms
// no dead rule: every site it covers is called at least once on every
// composite, so each armed rule can fire.
func TestScheduleArmsOnlyReachedSites(t *testing.T) {
	for _, composite := range Composites() {
		for _, seed := range []uint64{1, 7, 42} {
			rep := Run(Config{Composite: composite, Seed: seed})
			for _, r := range schedule(0.05) {
				if rep.Calls[r.Site] == 0 {
					t.Errorf("%s seed %d: schedule arms %q, which the run never called (calls %v)",
						composite, seed, r.Site, rep.Calls)
				}
			}
		}
	}
}

// TestRunIsDeterministic pins the replay contract at harness level: the
// same seed reproduces the identical run, and replaying a run's recorded
// schedule reproduces its outcome.
func TestRunIsDeterministic(t *testing.T) {
	cfg := Config{Composite: "mapped+elastic", Seed: 99, Steps: 1500}
	first := Run(cfg)
	second := Run(cfg)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", first, second)
	}
	if !first.OK() {
		t.Fatalf("seed run failed: %+v", first.Violations)
	}

	replay := Run(Config{Composite: cfg.Composite, Seed: cfg.Seed, Steps: cfg.Steps, Replay: first.Schedule})
	if !replay.OK() {
		t.Fatalf("replay of a passing schedule failed: %+v", replay.Violations)
	}
	if replay.Injected != first.Injected || len(replay.Schedule) != len(first.Schedule) {
		t.Fatalf("replay injected %d faults over %d records, original %d over %d",
			replay.Injected, len(replay.Schedule), first.Injected, len(first.Schedule))
	}
}

// TestFlightRecorderDeterministic pins the embedded flight-recorder dump
// into the replay contract: the chaos harness builds its registry with
// telemetry.New, and the ring stamps logical steps, so two
// same-seed runs record the identical event sequence — the property
// that makes an incident file's event trail trustworthy evidence rather
// than a racy approximation.
func TestFlightRecorderDeterministic(t *testing.T) {
	cfg := Config{Composite: "mapped+elastic", Seed: 7, Steps: 2000}
	first := Run(cfg)
	second := Run(cfg)
	if len(first.Events) == 0 {
		t.Fatal("chaos run recorded no flight-recorder events — the sinks are unwired")
	}
	if !reflect.DeepEqual(first.Events, second.Events) {
		t.Fatalf("same seed recorded different event sequences:\n%+v\n%+v", first.Events, second.Events)
	}
	for i := 1; i < len(first.Events); i++ {
		if first.Events[i].Step <= first.Events[i-1].Step {
			t.Fatalf("event steps not strictly increasing at index %d: %+v", i, first.Events[i-1:i+1])
		}
	}
}
