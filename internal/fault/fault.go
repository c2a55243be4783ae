// Package fault is the deterministic syscall-fault injector of the
// mapped/elastic stack: a schedulable shim table that internal/mem
// routes every platform call through, so tests — and the chaos harness —
// can make the environment fail on command.
//
// The paper's claims are progress guarantees: the allocator keeps
// serving under contention. The layers grown over it (mapped memory,
// elastic capacity, the multi router's lifecycle) lean on syscalls —
// mmap, mprotect, madvise — that fail in production for
// environmental reasons (ENOMEM under pressure, EAGAIN from the kernel).
// Those failures are nearly impossible to provoke naturally in a test, so
// every recovery path they guard would otherwise ship untested. The
// injector closes that gap deterministically:
//
//   - every call site is a named Site with a per-site call counter;
//   - a schedule of Rules decides which calls fail: the Nth call, every
//     call, a call-index range, or a seeded probability;
//   - every injected fault is recorded as (site, call index), so a
//     failing schedule — however it was generated — replays exactly via
//     Replay/UseReplay, which is what the chaos harness uploads as its
//     incident artifact.
//
// The injector is nil-safe (a nil *Injector injects nothing), so the
// production path pays one nil check per syscall — all of which are on
// cold lifecycle paths (commit/decommit), never on alloc/free.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// Site names one injectable syscall site of the platform backend.
type Site string

// The sites internal/mem routes through the injector. The portable
// fallback checks the same sites, so fault schedules behave identically
// on every platform.
const (
	// Reserve is the address-space reservation (mmap on Linux).
	Reserve Site = "reserve"
	// Commit is the make-resident transition (mprotect RW + touch).
	Commit Site = "commit"
	// Decommit is the return-to-OS transition (MADV_DONTNEED).
	Decommit Site = "decommit"
)

// Sites lists every injectable site.
func Sites() []Site { return []Site{Reserve, Commit, Decommit} }

// Fault is one injected failure: the N-th call (1-based) at Site failed
// with Err. A []Fault is a complete, replayable schedule — the JSON form
// is the chaos harness's incident artifact.
type Fault struct {
	Site Site   `json:"site"`
	N    uint64 `json:"n"`
	Err  string `json:"err"`
}

func (f Fault) String() string { return fmt.Sprintf("%s#%d: %s", f.Site, f.N, f.Err) }

// Rule decides whether one call at a site fails. Build rules with the
// Fail* constructors; exactly one trigger (Nth, Every/From/To, Prob) is
// set per rule.
type Rule struct {
	Site Site
	// Nth fails exactly the Nth call (1-based); 0 disables this trigger.
	Nth uint64
	// Every fails all calls, optionally windowed to [From, To] (0 = open).
	Every    bool
	From, To uint64
	// Prob fails each call independently with this probability, decided
	// by the injector's seed and the call index — deterministic for a
	// given (seed, site, index), so a probabilistic run is reproducible
	// from its seed alone and exactly replayable from its record.
	Prob float64
	// Err is the error injected (defaults to a generic injected-fault
	// error when nil).
	Err error
}

// FailNth fails exactly the nth call (1-based) at the site.
func FailNth(site Site, n uint64, err error) Rule { return Rule{Site: site, Nth: n, Err: err} }

// FailAlways fails every call at the site until the schedule changes.
func FailAlways(site Site, err error) Rule { return Rule{Site: site, Every: true, Err: err} }

// FailRange fails every call with index in [from, to] (1-based,
// inclusive; to == 0 leaves the range open-ended).
func FailRange(site Site, from, to uint64, err error) Rule {
	return Rule{Site: site, Every: true, From: from, To: to, Err: err}
}

// FailProb fails each call at the site with probability p, seeded by the
// injector (deterministic per call index).
func FailProb(site Site, p float64, err error) Rule { return Rule{Site: site, Prob: p, Err: err} }

func (r Rule) matches(n, seed uint64) bool {
	switch {
	case r.Nth != 0:
		return n == r.Nth
	case r.Every:
		if r.From != 0 && n < r.From {
			return false
		}
		if r.To != 0 && n > r.To {
			return false
		}
		return true
	case r.Prob > 0:
		return hash64(seed^siteHash(r.Site)^n*0x9E3779B97F4A7C15) < uint64(r.Prob*float64(1<<63)*2)
	}
	return false
}

// siteHash folds a site name into 64 bits (FNV-1a).
func siteHash(s Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hash64 is SplitMix64's finalizer: a cheap, well-mixed 64-bit hash.
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Injector is a schedulable fault source. All methods are safe for
// concurrent use and nil-safe: a nil injector never injects, so callers
// hold one unconditionally.
type Injector struct {
	mu     sync.Mutex
	seed   uint64
	rules  []Rule
	replay map[Site]map[uint64]string

	calls    map[Site]uint64
	injected map[Site]uint64
	record   []Fault

	// sink, when non-nil, receives one call per injected fault for the
	// telemetry flight recorder: event is the site name, a the 1-based
	// call index. Invoked with mu held, in injection order, so the ring's
	// logical steps match the record's order exactly.
	sink func(event string, a, b uint64)
}

// New builds an injector with the given seed (for probabilistic rules)
// and initial schedule. An empty schedule injects nothing until Set.
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{
		seed:     seed,
		rules:    rules,
		calls:    map[Site]uint64{},
		injected: map[Site]uint64{},
	}
}

// Replay builds an injector that fails exactly the recorded faults —
// the same (site, call index) pairs with the same error text — and
// nothing else.
func Replay(faults []Fault) *Injector {
	in := New(0)
	in.UseReplay(faults)
	return in
}

// Check is the shim: call sites invoke it once per syscall attempt, and
// a non-nil return is the injected failure (the syscall must not run).
// Call counting continues across schedule changes, so a record spliced
// together from several Set/Clear phases still replays exactly.
func (in *Injector) Check(site Site) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[site]++
	n := in.calls[site]
	if in.replay != nil {
		if msg, ok := in.replay[site][n]; ok {
			return in.fail(site, n, errors.New(msg))
		}
		return nil
	}
	for _, r := range in.rules {
		if r.Site != site || !r.matches(n, in.seed) {
			continue
		}
		err := r.Err
		if err == nil {
			err = fmt.Errorf("fault: injected %s failure", site)
		}
		return in.fail(site, n, err)
	}
	return nil
}

// fail records and returns one injected fault. Called with mu held.
func (in *Injector) fail(site Site, n uint64, err error) error {
	in.injected[site]++
	in.record = append(in.record, Fault{Site: site, N: n, Err: err.Error()})
	if in.sink != nil {
		in.sink(string(site), n, 0)
	}
	return err
}

// SetEventSink installs the flight-recorder publish hook: every
// injected fault is published as (site, call index). Nil-safe on a nil
// injector; nil uninstalls.
func (in *Injector) SetEventSink(fn func(event string, a, b uint64)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.sink = fn
	in.mu.Unlock()
}

// Set replaces the schedule; call counters and the record persist, so
// phased schedules (arm, escalate, clear) produce one coherent record.
func (in *Injector) Set(rules ...Rule) {
	in.mu.Lock()
	in.rules = append([]Rule(nil), rules...)
	in.replay = nil
	in.mu.Unlock()
}

// Clear drops the schedule: faults stop, counters and the record stay —
// the recovery phase of a chaos run keeps counting calls so its record
// remains replayable.
func (in *Injector) Clear() { in.Set() }

// UseReplay switches the injector into replay mode: exactly the given
// recorded faults fire, by (site, call index), nothing else.
func (in *Injector) UseReplay(faults []Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules = nil
	in.replay = map[Site]map[uint64]string{}
	for _, f := range faults {
		m := in.replay[f.Site]
		if m == nil {
			m = map[uint64]string{}
			in.replay[f.Site] = m
		}
		m[f.N] = f.Err
	}
}

// Record returns the injected faults so far, in injection order — a
// complete schedule for Replay.
func (in *Injector) Record() []Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.record...)
}

// Calls returns the per-site call counts (injected or not).
func (in *Injector) Calls() map[Site]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Site]uint64, len(in.calls))
	for s, n := range in.calls {
		out[s] = n
	}
	return out
}

// Injected returns the per-site injected-fault counts — the fault_*
// counters LayerStats surfaces.
func (in *Injector) Injected() map[Site]uint64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[Site]uint64, len(in.injected))
	for s, n := range in.injected {
		out[s] = n
	}
	return out
}

// InjectedTotal returns the total number of injected faults.
func (in *Injector) InjectedTotal() uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var t uint64
	for _, n := range in.injected {
		t += n
	}
	return t
}
