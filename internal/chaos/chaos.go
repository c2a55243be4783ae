// Package chaos is the fault-schedule stress harness of the mapped
// elastic stack. Phase 1 is one call into verify.Oracle's random walk
// while a seeded fault injector makes the region's lifecycle syscalls
// fail; what the package adds is its own: the build, the fault schedule
// and its replay, a logical clock that reads the walk's step count, the
// mid-drain kill, and recovery. It asserts the two halves of the
// robustness contract —
//
//  1. no invariant violation while faults are active: the oracle admits
//     every delivered chunk (exclusive, correctly sized), no operation
//     panics on an environmental error, and the capacity manager keeps
//     serving decisions (degrading allocation to deny when growth is
//     refused);
//  2. full recovery once the schedule clears: pending drains retire to a
//     healthy floor (the ROADMAP's "kill an instance mid-drain" scenario
//     included — a retirement interrupted by decommit failure must stay
//     draining and complete later), the oracle's reconcile holds, committed
//     bytes match the published instance set, and the stack grows again.
//
// Every injected fault is recorded, so a failing run's Report carries a
// schedule that replays the failure exactly (fault.Replay); nbbsstress
// -chaos writes it as the incident artifact CI uploads.
package chaos

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/fault"
	"repro/internal/multi"
	"repro/internal/stack"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Config parameterizes one chaos run.
type Config struct {
	// Composite selects the stack under test (see Composites).
	Composite string
	// Seed drives both the workload RNG and the probabilistic fault
	// schedule.
	Seed uint64
	// Steps is the number of workload operations under the active fault
	// schedule (0 = 8000).
	Steps int
	// Prob is the per-syscall fault probability of the generated
	// schedule (0 = 0.05).
	Prob float64
	// Replay, when non-nil, replays a recorded schedule instead of
	// generating one from Seed/Prob — the incident-reproduction path.
	Replay []fault.Fault
}

// Composites lists the stack compositions the harness covers: the
// mapped elastic router, bare and under the slab layer (which adds run
// carving and the slab drain fence to the fault surface).
func Composites() []string { return []string{"mapped+elastic", "slab+mapped+elastic"} }

// Report is the outcome of one chaos run.
type Report struct {
	Composite string  `json:"composite"`
	Seed      uint64  `json:"seed"`
	Steps     int     `json:"steps"`
	Prob      float64 `json:"prob"`
	// Violations are invariant breaches (empty on a passing run); the
	// first breach aborts the run.
	Violations []string `json:"violations,omitempty"`
	// Recovered reports that the post-schedule health checks all passed.
	Recovered bool `json:"recovered"`
	// Schedule is the complete record of injected faults — feed it back
	// through Config.Replay to reproduce this run exactly.
	Schedule []fault.Fault `json:"schedule"`
	// Injected is the total number of injected faults.
	Injected uint64 `json:"injected"`
	// Calls counts the calls that reached each fault site, injected or
	// not — the evidence that the schedule armed sites the stack uses.
	Calls map[fault.Site]uint64 `json:"calls"`
	// MidDrainKills counts retirements the harness interrupted with a
	// forced decommit failure.
	MidDrainKills int `json:"mid_drain_kills"`
	// Ops counts workload operations that reached the allocator.
	Ops uint64 `json:"ops"`
	// Denied counts allocation attempts the degraded stack refused —
	// the deny rung of the ladder, a legitimate outcome, never an error.
	Denied uint64 `json:"denied"`
	// Events is the flight-recorder dump: the last lifecycle events
	// (elastic transitions, injected faults, degradation rungs, slab
	// crossings) before the run ended, in logical-step order. Two
	// same-seed runs record identical dumps — the ring is stamped by its
	// logical publish counter, so the dump is part of the replayable
	// incident, not wall-clock noise.
	Events []telemetry.Event `json:"events,omitempty"`
}

// OK reports whether the run held every invariant and recovered.
func (r *Report) OK() bool { return len(r.Violations) == 0 && r.Recovered }

func (r *Report) failf(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// buildComposite assembles the stack under test with the injector wired
// into its region. The injector is armed AFTER the build: construction
// commits the initial windows, and the contract under test is runtime
// degradation, not construction failure.
func buildComposite(label string, in *fault.Injector, reg *telemetry.Registry) (*stack.Stack, error) {
	per := alloc.Config{Total: 1 << 16, MinSize: 64, MaxSize: 1 << 14}
	spec := stack.Spec{
		Variant:   "4lvl-nb",
		Per:       per,
		Instances: 2,
		Elastic:   &elastic.Config{MinInstances: 1, MaxInstances: 4},
		Mapped:    true,
		Faults:    in,
		Telemetry: reg,
	}
	switch label {
	case "mapped+elastic":
	case "slab+mapped+elastic":
		spec.Slab = true
	default:
		return nil, fmt.Errorf("chaos: unknown composite %q (have %v)", label, Composites())
	}
	return stack.Build(spec)
}

// schedule builds the probabilistic rule set over every fault site.
func schedule(p float64) []fault.Rule {
	return []fault.Rule{
		fault.FailProb(fault.Reserve, p, syscall.ENOMEM),
		fault.FailProb(fault.Commit, p, syscall.ENOMEM),
		fault.FailProb(fault.Decommit, p, syscall.EAGAIN),
	}
}

// Run executes one chaos run and returns its report. It never panics:
// a panic anywhere in the driven stack is converted into a violation
// (environmental failure must degrade, not crash).
func Run(cfg Config) (rep Report) {
	if cfg.Steps <= 0 {
		cfg.Steps = 8000
	}
	if cfg.Prob <= 0 {
		cfg.Prob = 0.05
	}
	rep = Report{Composite: cfg.Composite, Seed: cfg.Seed, Steps: cfg.Steps, Prob: cfg.Prob}

	// The workload is single-goroutine and the ring stamps events with its
	// logical step counter, so the recorded dump is deterministic per seed.
	reg := telemetry.New()
	in := fault.New(cfg.Seed)
	st, err := buildComposite(cfg.Composite, in, reg)
	if err != nil {
		rep.failf("building %s: %v", cfg.Composite, err)
		return rep
	}
	o := verify.NewOracle(st.Top, rep.failf)
	mgr := st.Elastic

	// A logical clock stepped by the walk: backoff decisions depend only
	// on the step counter, so a replayed schedule sees the identical clock
	// and makes the identical retry decisions.
	base := time.Unix(0, 0)
	mgr.SetClock(func() time.Time {
		return base.Add(time.Duration(o.Step) * time.Millisecond)
	})

	defer func() {
		rep.Schedule = in.Record()
		rep.Injected = in.InjectedTotal()
		rep.Calls = in.Calls()
		rep.Events = reg.Ring().Events()
		if p := recover(); p != nil {
			rep.failf("panic under fault schedule: %v", p)
			rep.Recovered = false
		}
	}()

	// Arm the schedule only now — the build needed its commits.
	if cfg.Replay != nil {
		in.UseReplay(cfg.Replay)
	} else {
		in.Set(schedule(cfg.Prob)...)
	}

	// Phase 1: the oracle's random walk under the active fault schedule.
	// Its convenience-path allocations stay deterministic: one goroutine
	// borrows the same idle handle from the LIFO pool every time.
	ok := o.Walk(rand.NewSource(int64(cfg.Seed)), cfg.Steps)
	rep.Ops, rep.Denied = uint64(o.Step), o.Denied
	if !ok {
		return rep
	}

	// Phase 2: the mid-drain kill. Empty the stack, make sure there is a
	// drainable instance (the walk may have settled at the floor — lift
	// the phase-1 schedule and any backoff window so the grow is clean),
	// then start a drain and make its decommit fail persistently: the
	// retirement must park as draining (published, window committed)
	// instead of half-dying.
	o.Drain()
	in.Clear()
	o.Step += 1000
	for i := 0; mgr.Router().ActiveInstances() < 2 && i < 4; i++ {
		if _, err := mgr.Grow(); err != nil {
			rep.failf("mid-drain kill setup: grow with faults cleared: %v", err)
			return rep
		}
	}
	in.Set(fault.FailAlways(fault.Decommit, syscall.EAGAIN))
	victim, err := mgr.Shrink()
	if err != nil {
		rep.failf("mid-drain kill: shrink refused with %d active instances: %v",
			mgr.Router().ActiveInstances(), err)
		return rep
	}
	rep.MidDrainKills++
	mgr.Poll() // drives TryRetire into the injected decommit failure
	infos := mgr.Router().InstanceInfos()
	if victim >= len(infos) || infos[victim].State != multi.Draining {
		rep.failf("mid-drain kill: victim %d not parked draining after decommit failure", victim)
		return rep
	}
	if !st.Mem.Committed(victim) {
		rep.failf("mid-drain kill: victim %d window decommitted despite the injected failure", victim)
		return rep
	}
	if c := mgr.Counters(); c.RetireFailures == 0 {
		rep.failf("mid-drain kill: retire failure not counted: %+v", c)
		return rep
	}

	// Phase 3: recovery. The schedule clears; the parked retirement must
	// complete, the fleet must settle to a healthy floor, accounting must
	// reconcile, and the stack must grow and allocate again.
	in.Clear()
	o.Step += 1000 // let every backoff window lapse on the logical clock
	for i := 0; i < 8; i++ {
		mgr.Poll()
	}
	if !o.Reconcile() {
		return rep
	}
	// Committed bytes must reconcile with the published instance set —
	// no stranded half-committed windows behind the fault schedule.
	span := mgr.Router().InstanceSpan()
	if got, want := st.Mem.Stats().CommittedBytes, uint64(mgr.Router().Instances())*span; got != want {
		rep.failf("recovery: %d bytes committed for %d published instances (want %d)", got, mgr.Router().Instances(), want)
	}
	// The fleet is growable again (Reconcile checked it serves).
	if _, err := mgr.Grow(); err != nil {
		rep.failf("recovery: grow after faults cleared: %v", err)
	}
	rep.Recovered = len(rep.Violations) == 0
	return rep
}
