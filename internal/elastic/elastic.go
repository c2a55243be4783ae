// Package elastic is the capacity manager of the allocator stack: a
// composable layer over the multi-instance router that grows and shrinks
// the back-end instance set at runtime under a watermark policy.
//
// The paper's non-blocking buddy system manages a fixed memory region; a
// production deployment serving bursty traffic either over-provisions
// that region permanently or hits a hard allocation wall at peak. The
// manager closes the gap using machinery the lower layers already have:
// instances share one geometry, the router's copy-on-write slot table
// publishes instance-set changes atomically (internal/multi), and the
// bulk-transfer contract lets a shrink move whole magazines back down in
// a few crossings.
//
// Lifecycle. A grow publishes a fresh instance (reusing a retired hole
// when one exists, re-activating a draining slot when pressure returns
// mid-drain). A shrink is three-phase: the victim slot is marked draining
// (allocations skip it, frees keep landing on it by offset), the manager
// waits for the slot's live-chunk count to reach zero — triggering depot
// drains through registered hooks so parked magazines cannot stall it —
// and only then unpublishes the slot. See DESIGN.md, "The elastic
// instance lifecycle", for the memory-ordering argument.
//
// The policy engine is deliberately pull-based: Poll() performs one
// observation/decision step, which makes grow/drain/retire sequences
// deterministic in tests; Start launches an optional background goroutine
// that Polls on an interval for deployments that want autonomy.
package elastic

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/multi"
)

// The watermark rule and the grow backoff, the same for every manager.
const (
	// HighWater is the utilization (live bytes / active capacity) at or
	// above which the manager wants to grow.
	HighWater = 0.75
	// LowWater is the utilization at or below which the manager wants to
	// shrink.
	LowWater = 0.25
	// Hysteresis is how many consecutive Polls must agree before a grow
	// or shrink is acted on; it keeps a single spike or dip from flapping
	// the instance set.
	Hysteresis = 2
	// GrowRetryBase and GrowRetryMax bound the exponential backoff after
	// a failed grow (an environmental reserve/commit failure, not the
	// cap): first retry after ~1ms, doubling per consecutive failure up
	// to ~250ms — long enough that a persistently failing environment
	// sees a handful of syscalls per second instead of one per Poll,
	// short enough that recovery is near-immediate.
	GrowRetryBase = time.Millisecond
	GrowRetryMax  = 250 * time.Millisecond
)

// Typed sentinel errors distinguishing WHY a grow was denied. Both are
// environmental outcomes, not caller misuse — callers match with
// errors.Is and degrade (deny the allocation, shed load) rather than
// crash.
var (
	// ErrAtCap: the policy refused — the instance set is at
	// Config.MaxInstances. Growth resumes when capacity drains.
	ErrAtCap = errors.New("elastic: at instance cap")
	// ErrBackpressure: the environment refused recently — a grow attempt
	// failed (reserve/commit error from the region) and the manager is
	// holding off until the backoff window elapses. The wrapped chain
	// also carries the underlying cause.
	ErrBackpressure = errors.New("elastic: grow backpressure")
)

// Config is the fleet bounds of a manager.
type Config struct {
	// MinInstances is the floor the manager never drains below (>= 1;
	// 0 means 1).
	MinInstances int
	// MaxInstances caps the published instance set (active + draining;
	// 0 means twice the router's initial instance count).
	MaxInstances int
}

func (c Config) withDefaults(initial int) Config {
	if c.MinInstances <= 0 {
		c.MinInstances = 1
	}
	if c.MaxInstances <= 0 {
		c.MaxInstances = 2 * initial
	}
	return c
}

// Counters are the manager's lifecycle totals; quiescent points only
// unless read under the manager's own Poll serialization.
type Counters struct {
	Polls         uint64 // Poll steps executed
	Grows         uint64 // instances published by AddInstance
	Reactivations uint64 // draining slots flipped back to active
	Drains        uint64 // drain phases started
	Retires       uint64 // slots unpublished after reaching zero live
	DeniedAtCap   uint64 // grow decisions refused by MaxInstances
	// GrowFailures counts grow attempts the environment refused (an
	// AddInstance reserve/commit error) — distinct from DeniedAtCap,
	// which is the policy refusing.
	GrowFailures uint64
	// GrowRetries counts attempts made after at least one failure, i.e.
	// the backoff window elapsed and the manager tried again.
	GrowRetries uint64
	// DeniedBackpressure counts grow decisions suppressed because a
	// backoff window from an earlier failure was still open — the
	// mechanism that keeps persistent failure from hot-spinning syscalls.
	DeniedBackpressure uint64
	// RetireFailures counts TryRetire calls that errored (decommit
	// failure); the slot stays draining and a later Poll retries.
	RetireFailures uint64
	// LastRetirePolls is the drain age (in Poll steps) of the most recent
	// retirement — its time-to-retire.
	LastRetirePolls uint64
}

// Action reports what one Poll step did.
type Action struct {
	// Utilization is the observed live-bytes / active-capacity ratio.
	Utilization float64
	// Grew is the slot index of a newly published instance (-1 if none).
	Grew int
	// Reactivated is the slot index of a drain cancelled by pressure
	// (-1 if none).
	Reactivated int
	// DrainStarted is the slot index a drain phase began on (-1 if none).
	DrainStarted int
	// Retired lists slots unpublished by this step.
	Retired []int
	// DeniedAtCap reports a grow decision refused by MaxInstances.
	DeniedAtCap bool
	// DeniedBackpressure reports a grow decision suppressed by the
	// backoff window of an earlier environmental failure.
	DeniedBackpressure bool
	// GrowErr is the environmental cause when a grow attempt failed this
	// step (or the last recorded cause when DeniedBackpressure).
	GrowErr error
}

// DrainHook is called when the manager needs chunks of the global offset
// window [lo, hi) returned to the back-end — when a drain starts and on
// every Poll while it is pending. The caching front-end registers one
// that drains depot-parked magazines overlapping the window, so chunks
// idling in the depot cannot stall a retirement forever.
type DrainHook func(lo, hi uint64)

// Manager wraps the multi-instance router with the elastic capacity
// policy. Every allocator operation passes through the embedded
// alloc.Layer to the router — the manager holds no per-worker state, so
// router handles serve directly — and caching front-ends and the slab
// stack over it transparently. Scrub passes through too and retires
// nothing: lifecycle transitions only happen through Poll, so test
// interleavings stay deterministic.
type Manager struct {
	alloc.Layer
	inner *multi.Multi
	cfg   Config

	// mu serializes Poll/Grow/Shrink decision steps (the router's own
	// table mutations have their own mutex; this one makes the policy
	// read-decide-act sequence atomic).
	mu       sync.Mutex
	counters Counters
	hooks    []DrainHook
	// hiStreak and loStreak count the consecutive Polls at or above the
	// high watermark and at or below the low one (under mu).
	hiStreak, loStreak int
	// drainSince is each draining slot's drain start step (under mu), for
	// the time-to-retire gauge (DrainAges, LastRetirePolls).
	drainSince map[int]uint64

	// Grow-failure backoff state (under mu). growStreak counts
	// consecutive environmental failures; nextGrowAt gates the next
	// attempt; lastGrowErr is the cause surfaced while the gate is
	// closed. clock is injectable (SetClock) so backoff decisions are
	// deterministic in tests and chaos replays; jitter is a seeded
	// xorshift state so even the jitter replays.
	growStreak  int
	nextGrowAt  time.Time
	lastGrowErr error
	clock       func() time.Time
	jitter      uint64

	// sink, when non-nil, receives one call per lifecycle transition for
	// the telemetry flight recorder (under mu, so events are ordered like
	// the transitions they describe). Operand a is the slot index, b the
	// failure streak where one exists.
	sink func(event string, a, b uint64)

	bg     sync.WaitGroup
	stopCh chan struct{}
}

// New builds a capacity manager over the router. It must be called before
// the router serves any traffic: the manager enables the router's
// per-slot live accounting, and chunks delivered before that would be
// invisible to the retirement logic.
func New(inner *multi.Multi, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults(inner.Instances())
	if cfg.MaxInstances < cfg.MinInstances {
		return nil, fmt.Errorf("elastic: max instances %d below min %d", cfg.MaxInstances, cfg.MinInstances)
	}
	if n := inner.Instances(); n > cfg.MaxInstances {
		return nil, fmt.Errorf("elastic: router starts with %d instances, above the %d cap", n, cfg.MaxInstances)
	}
	layer, err := alloc.NewLayer(inner)
	if err != nil {
		return nil, fmt.Errorf("elastic: %w", err)
	}
	inner.EnableLiveTracking()
	return &Manager{
		Layer:      layer,
		inner:      inner,
		cfg:        cfg,
		drainSince: make(map[int]uint64),
		clock:      time.Now,
		jitter:     0x9E3779B97F4A7C15,
	}, nil
}

// SetClock replaces the manager's time source, which only backoff
// decisions consult — tests and the chaos harness install a logical
// clock so grow-retry sequences are deterministic and replayable. A nil
// now restores the wall clock. Call before traffic.
func (mgr *Manager) SetClock(now func() time.Time) {
	if now == nil {
		now = time.Now
	}
	mgr.mu.Lock()
	mgr.clock = now
	mgr.mu.Unlock()
}

// SetEventSink installs the flight-recorder publish hook the telemetry
// layer uses to capture the lifecycle (grow/drain/retire/reactivate and
// the deny/backoff rungs). Install during stack construction, before
// traffic; nil uninstalls.
func (mgr *Manager) SetEventSink(fn func(event string, a, b uint64)) {
	mgr.mu.Lock()
	mgr.sink = fn
	mgr.mu.Unlock()
}

// emit publishes a lifecycle event. Called with mu held; nil-safe.
func (mgr *Manager) emit(event string, a, b uint64) {
	if mgr.sink != nil {
		mgr.sink(event, a, b)
	}
}

// Config returns the effective (defaulted) fleet bounds.
func (mgr *Manager) Config() Config { return mgr.cfg }

// Router exposes the wrapped multi-instance router.
func (mgr *Manager) Router() *multi.Multi { return mgr.inner }

// OnDrainRange registers a hook the manager calls for every draining
// slot's offset window, both when the drain starts and on every Poll
// while the slot waits for zero live chunks. Register hooks during stack
// construction, before traffic.
func (mgr *Manager) OnDrainRange(fn DrainHook) {
	mgr.mu.Lock()
	mgr.hooks = append(mgr.hooks, fn)
	mgr.mu.Unlock()
}

// Counters returns the lifecycle totals.
func (mgr *Manager) Counters() Counters {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	return mgr.counters
}

// Utilization returns live bytes over active capacity (0 when no slot is
// active, which cannot happen through the manager's own transitions).
func (mgr *Manager) Utilization() float64 {
	used, capacity := mgr.usage()
	if capacity == 0 {
		return 0
	}
	return float64(used) / float64(capacity)
}

// usage sums live bytes and capacity over the active slots.
func (mgr *Manager) usage() (used int64, capacity int64) {
	span := int64(mgr.inner.InstanceSpan())
	for _, info := range mgr.inner.InstanceInfos() {
		if info.State == multi.Active {
			used += info.LiveBytes
			capacity += span
		}
	}
	return used, capacity
}

// drainRange invokes the registered hooks for slot k's offset window.
func (mgr *Manager) drainRange(k int) {
	lo := uint64(k) * mgr.inner.InstanceSpan()
	hi := lo + mgr.inner.InstanceSpan()
	for _, fn := range mgr.hooks {
		fn(lo, hi)
	}
}

// Poll performs one observation/decision step: finish pending retires
// whose slots reached zero live chunks, then apply the watermark rule to
// the active set's utilization. Poll is safe to call concurrently with
// allocator traffic; decision steps serialize on the manager's mutex.
func (mgr *Manager) Poll() Action {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	mgr.counters.Polls++
	act := Action{Grew: -1, Reactivated: -1, DrainStarted: -1}

	// Phase 1: push pending drains toward zero live and retire the ones
	// that got there. The depot hook runs first so magazines parked since
	// the last Poll go back down before the live check. A slot pinned by
	// a straggler stays draining until its owner frees (DrainAges shows
	// how long it has waited).
	for _, info := range mgr.inner.InstanceInfos() {
		if info.State != multi.Draining {
			continue
		}
		if _, ok := mgr.drainSince[info.Slot]; !ok {
			// Drains started behind the manager's back (direct router
			// calls) are adopted with their age starting now.
			mgr.drainSince[info.Slot] = mgr.counters.Polls
		}
		mgr.drainRange(info.Slot)
		done, err := mgr.inner.TryRetire(info.Slot)
		switch {
		case err != nil:
			// A decommit failure left the slot published and draining;
			// count it and let a later Poll retry — retirement is the one
			// lifecycle step that is naturally idempotent.
			mgr.counters.RetireFailures++
			mgr.emit("retire-fail", uint64(info.Slot), 0)
		case done:
			mgr.counters.Retires++
			mgr.retireAge(info.Slot)
			act.Retired = append(act.Retired, info.Slot)
			mgr.emit("retire", uint64(info.Slot), 0)
		}
	}

	// Phase 2: the watermark rule. Utilization at or above HighWater for
	// Hysteresis consecutive Polls grows by one; at or below LowWater for
	// Hysteresis consecutive Polls drains the active slot with the fewest
	// live bytes; a Poll in between resets both streaks.
	used, capacity := mgr.usage()
	if capacity == 0 {
		return act
	}
	act.Utilization = float64(used) / float64(capacity)
	switch {
	case act.Utilization >= HighWater:
		mgr.loStreak = 0
		if mgr.hiStreak++; mgr.hiStreak >= Hysteresis {
			mgr.hiStreak = 0
			mgr.grow(&act)
		}
	case act.Utilization <= LowWater:
		mgr.hiStreak = 0
		if mgr.loStreak++; mgr.loStreak >= Hysteresis {
			mgr.loStreak = 0
			mgr.shrinkSlot(&act)
		}
	default:
		mgr.hiStreak, mgr.loStreak = 0, 0
	}
	return act
}

// retireAge folds a retiring slot's drain age into the bookkeeping.
// Called with mu held.
func (mgr *Manager) retireAge(k int) {
	if since, ok := mgr.drainSince[k]; ok {
		mgr.counters.LastRetirePolls = mgr.counters.Polls - since
		delete(mgr.drainSince, k)
	}
}

// DrainAge is one draining slot's time-to-retire-so-far.
type DrainAge struct {
	// Slot is the table position.
	Slot int
	// Polls is how many Poll steps the slot has been draining.
	Polls uint64
	// Live is the chunk count still pinning it.
	Live int64
}

// DrainAges reports how long each currently draining slot has waited,
// in Poll steps — the per-slot time-to-retire gauge nbbsinfo prints.
func (mgr *Manager) DrainAges() []DrainAge {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	var out []DrainAge
	for _, info := range mgr.inner.InstanceInfos() {
		if info.State != multi.Draining {
			continue
		}
		age := uint64(0)
		if since, ok := mgr.drainSince[info.Slot]; ok {
			age = mgr.counters.Polls - since
		}
		out = append(out, DrainAge{Slot: info.Slot, Polls: age, Live: info.Live})
	}
	return out
}

// grow publishes capacity: a draining slot is re-activated when one
// exists (its chunks are still ours; cancelling the drain is free),
// otherwise a fresh instance is built, unless the cap refuses or a
// backoff window from an earlier environmental failure is still open.
// Called with mu held.
func (mgr *Manager) grow(act *Action) {
	for _, info := range mgr.inner.InstanceInfos() {
		if info.State == multi.Draining {
			if err := mgr.inner.Reactivate(info.Slot); err == nil {
				mgr.counters.Reactivations++
				delete(mgr.drainSince, info.Slot)
				act.Reactivated = info.Slot
				mgr.emit("reactivate", uint64(info.Slot), 0)
				return
			}
		}
	}
	if mgr.inner.Instances() >= mgr.cfg.MaxInstances {
		mgr.counters.DeniedAtCap++
		act.DeniedAtCap = true
		mgr.emit("deny-cap", uint64(mgr.cfg.MaxInstances), 0)
		return
	}
	if mgr.growStreak > 0 && mgr.clock().Before(mgr.nextGrowAt) {
		// The environment refused recently; don't hammer it. Allocation
		// pressure meanwhile degrades to deny at the current capacity —
		// the stack keeps serving what it has.
		mgr.counters.DeniedBackpressure++
		act.DeniedBackpressure = true
		act.GrowErr = mgr.lastGrowErr
		mgr.emit("deny-backpressure", uint64(mgr.growStreak), 0)
		return
	}
	if mgr.growStreak > 0 {
		mgr.counters.GrowRetries++
	}
	k, err := mgr.inner.AddInstance()
	if err != nil {
		mgr.counters.GrowFailures++
		mgr.growStreak++
		mgr.lastGrowErr = err
		mgr.nextGrowAt = mgr.clock().Add(mgr.backoff())
		act.GrowErr = err
		mgr.emit("grow-fail", uint64(mgr.growStreak), 0)
		return
	}
	mgr.growStreak, mgr.lastGrowErr, mgr.nextGrowAt = 0, nil, time.Time{}
	mgr.counters.Grows++
	act.Grew = k
	mgr.emit("grow", uint64(k), 0)
}

// backoff returns the wait before the next grow attempt: GrowRetryBase
// doubled per consecutive failure, capped at GrowRetryMax, plus up to
// +50% deterministic xorshift jitter so a fleet of managers polling in
// lockstep doesn't retry in lockstep. Called with mu held, growStreak
// already incremented.
func (mgr *Manager) backoff() time.Duration {
	d := GrowRetryBase
	for i := 1; i < mgr.growStreak && d < GrowRetryMax; i++ {
		d *= 2
	}
	d = min(d, GrowRetryMax)
	mgr.jitter ^= mgr.jitter << 13
	mgr.jitter ^= mgr.jitter >> 7
	mgr.jitter ^= mgr.jitter << 17
	return d + time.Duration(mgr.jitter%uint64(d/2+1))
}

// shrinkSlot starts draining the active slot with the fewest live bytes,
// keeping at least MinInstances active. Called with mu held.
func (mgr *Manager) shrinkSlot(act *Action) {
	if mgr.inner.ActiveInstances() <= mgr.cfg.MinInstances {
		return
	}
	victim, best := -1, int64(0)
	for _, info := range mgr.inner.InstanceInfos() {
		if info.State != multi.Active {
			continue
		}
		if victim < 0 || info.LiveBytes < best {
			victim, best = info.Slot, info.LiveBytes
		}
	}
	if victim < 0 {
		return
	}
	if err := mgr.inner.StartDrain(victim); err != nil {
		return
	}
	mgr.counters.Drains++
	mgr.drainSince[victim] = mgr.counters.Polls
	act.DrainStarted = victim
	mgr.emit("drain", uint64(victim), 0)
	mgr.drainRange(victim)
	// An already-empty victim retires in the same step.
	done, err := mgr.inner.TryRetire(victim)
	switch {
	case err != nil:
		mgr.counters.RetireFailures++
		mgr.emit("retire-fail", uint64(victim), 0)
	case done:
		mgr.counters.Retires++
		mgr.retireAge(victim)
		act.Retired = append(act.Retired, victim)
		mgr.emit("retire", uint64(victim), 0)
	}
}

// Grow forces one grow step regardless of watermarks (tests, operator
// tooling). It returns the slot index published or re-activated; a
// refusal carries the real cause — errors.Is(err, ErrAtCap) when the
// policy refused, errors.Is(err, ErrBackpressure) when an earlier
// environmental failure has the manager backing off (the chain also
// carries that failure), or the grow attempt's own error.
func (mgr *Manager) Grow() (int, error) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	var act Action
	act.Grew, act.Reactivated = -1, -1
	mgr.grow(&act)
	switch {
	case act.Grew >= 0:
		return act.Grew, nil
	case act.Reactivated >= 0:
		return act.Reactivated, nil
	case act.DeniedBackpressure:
		if act.GrowErr != nil {
			return -1, fmt.Errorf("elastic: backing off after %d failed grows: %w (last: %w)",
				mgr.growStreak, ErrBackpressure, act.GrowErr)
		}
		return -1, fmt.Errorf("elastic: backing off: %w", ErrBackpressure)
	case act.GrowErr != nil:
		return -1, fmt.Errorf("elastic: growing: %w", act.GrowErr)
	default:
		return -1, fmt.Errorf("elastic: at the %d-instance cap: %w", mgr.cfg.MaxInstances, ErrAtCap)
	}
}

// Shrink forces one drain start regardless of watermarks (tests, operator
// tooling). It returns the slot index now draining; retirement still
// waits for zero live chunks via Poll.
func (mgr *Manager) Shrink() (int, error) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	var act Action
	act.Grew, act.Reactivated, act.DrainStarted = -1, -1, -1
	mgr.shrinkSlot(&act)
	if act.DrainStarted < 0 {
		return -1, fmt.Errorf("elastic: at the %d-instance floor", mgr.cfg.MinInstances)
	}
	return act.DrainStarted, nil
}

// Start launches a background goroutine Polling every interval until
// Stop. A second Start without Stop is a no-op. The goroutine is
// registered and spawned under the same mutex hold that publishes
// stopCh, so a concurrent Stop cannot observe the channel yet miss the
// goroutine in the wait group (which would let a stray Poll outlive
// Stop and race a subsequent quiescent-only Scrub).
func (mgr *Manager) Start(interval time.Duration) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if mgr.stopCh != nil {
		return
	}
	stop := make(chan struct{})
	mgr.stopCh = stop
	mgr.bg.Add(1)
	go func() {
		defer mgr.bg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				mgr.Poll()
			}
		}
	}()
}

// Stop halts the background goroutine started by Start and waits for it.
func (mgr *Manager) Stop() {
	mgr.mu.Lock()
	stop := mgr.stopCh
	mgr.stopCh = nil
	mgr.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	mgr.bg.Wait()
}

// Name implements alloc.Allocator.
func (mgr *Manager) Name() string { return "elastic+" + mgr.inner.Name() }

// LayerStats implements alloc.LayerStatser: the elastic entry carries the
// lifecycle counters and the current fleet shape, followed by the
// router's entries. It contributes no operation counters of its own —
// operations are accounted where they are served.
func (mgr *Manager) LayerStats() []alloc.LayerStats {
	c := mgr.Counters()
	active, draining := 0, 0
	for _, info := range mgr.inner.InstanceInfos() {
		switch info.State {
		case multi.Active:
			active++
		case multi.Draining:
			draining++
		}
	}
	entry := alloc.LayerStats{
		Layer: "elastic",
		Extra: map[string]uint64{
			"elastic_instances":     uint64(active),
			"elastic_draining":      uint64(draining),
			"elastic_slots":         uint64(mgr.inner.Slots()),
			"elastic_polls":         c.Polls,
			"elastic_grows":         c.Grows,
			"elastic_reactivations": c.Reactivations,
			"elastic_drains":        c.Drains,
			"elastic_retires":       c.Retires,
			"elastic_denied_at_cap": c.DeniedAtCap,
		},
	}
	if c.GrowFailures > 0 {
		entry.Extra["elastic_grow_failures"] = c.GrowFailures
		entry.Extra["elastic_grow_retries"] = c.GrowRetries
	}
	if c.DeniedBackpressure > 0 {
		entry.Extra["elastic_denied_backpressure"] = c.DeniedBackpressure
	}
	if c.RetireFailures > 0 {
		entry.Extra["elastic_retire_failures"] = c.RetireFailures
	}
	return append([]alloc.LayerStats{entry}, mgr.Layer.LayerStats()...)
}
