// Package mem is the platform-backed region provider of the allocator
// stack: the layer that turns the paper's offset arithmetic into memory
// the operating system actually accounts for.
//
// The source paper's buddy system manages *offsets* — its benchmarks
// never touch the allocated payload. A Region is the one provider of the
// bytes behind them: the multi router binds it (one window per slot), the
// elastic lifecycle commits and decommits its windows, and the stack's
// byte views (stack.Stack.Bytes) read it. A fixed make([]byte) would
// decide a region's resident footprint once, at construction; a Region
// lets a retired instance give its pages back to the OS.
//
// A Region is a set of equally sized windows — one per back-end instance
// slot — each with an independent reserve → commit → decommit → recommit
// lifecycle:
//
//	reserve   address space only (PROT_NONE, MAP_NORESERVE on Linux):
//	          no RSS, no swap accounting; faults on touch.
//	commit    make the window usable and resident (mprotect RW, the
//	          best-effort huge-page advice MADV_HUGEPAGE, then one
//	          madvise(MADV_POPULATE_WRITE), or a touch of one byte per
//	          page on kernels without it, so the committed bytes really
//	          back the window — commit is the moment RSS rises, not first
//	          use).
//	decommit  return the pages to the OS (MADV_DONTNEED) and fence the
//	          window off again (PROT_NONE). RSS drops immediately.
//	recommit  commit after a decommit; the window comes back zero-filled.
//
// The platform split lives behind build-tagged hooks (osReserve /
// osProtectRW / osPopulate / osDecommit / osRelease): Linux
// uses mmap + mprotect + madvise; every other platform falls back to one
// heap []byte per window with commit/decommit as pure bookkeeping, so
// the package — and every stack built over it — compiles and behaves
// identically everywhere, just without the RSS effect (Mapped reports
// which one you got).
//
// Every hook invocation is routed through an optional fault.Injector
// (WithFaultInjector): the injector's check runs in the portable Region
// methods, before the platform hook, so an injected fault schedule
// behaves identically on Linux and on the fallback. The checks sit on
// the cold lifecycle paths only — never on Window/Bytes.
//
// Windows are intentionally independent mappings rather than one large
// reservation: the elastic manager grows the instance table at runtime,
// and per-window mappings make Ensure(n) an O(1) mmap instead of a
// guess-the-ceiling reservation.
package mem

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/fault"
)

// Stats is the region's commit accounting; all counters are lifetime
// totals except the byte gauges. Reads are consistent snapshots.
type Stats struct {
	// ReservedBytes is address space reserved across all windows.
	ReservedBytes uint64
	// CommittedBytes is the bytes currently committed (resident-capable).
	CommittedBytes uint64
	// Commits counts Commit transitions out of the reserved state,
	// first-time commits and recommits alike.
	Commits uint64
	// Decommits counts windows returned to the OS.
	Decommits uint64
	// Recommits counts the subset of Commits that revived a previously
	// decommitted window — the elastic grow-into-a-hole path.
	Recommits uint64
	// ReserveFails, CommitFails and DecommitFails count lifecycle
	// transitions that returned an error to the caller (environmental or
	// injected). A failed transition leaves the window in its prior state.
	ReserveFails  uint64
	CommitFails   uint64
	DecommitFails uint64
}

// window is one lifecycle unit of the region.
type window struct {
	// buf is the WindowSize OS mapping: the view handed to callers and
	// the munmap token.
	buf []byte
	// committed is the lifecycle state; decommitted remembers that the
	// window went through a decommit, so the next commit counts as a
	// recommit.
	committed   bool
	decommitted bool
}

// Region is a growable set of same-size windows with independent
// commit/decommit lifecycles. All methods are safe for concurrent use.
type Region struct {
	winSize uint64
	inj     *fault.Injector

	mu   sync.Mutex
	wins []*window

	commits, decommits, recommits       uint64
	reserveFails, commitFails, decFails uint64

	// sink, when non-nil, receives one call per degradation-ladder rung
	// taken (commit-fail, reserve-fail, decommit-fail) for the telemetry
	// flight recorder. Invoked with mu held, so events order like the
	// transitions they describe.
	sink func(event string, a, b uint64)
}

// Option tunes a Region.
type Option func(*Region)

// WithFaultInjector routes every lifecycle syscall through the given
// injector (nil is valid and injects nothing). The check runs before the
// platform hook, so schedules behave identically on Linux and on the
// portable fallback.
func WithFaultInjector(in *fault.Injector) Option { return func(r *Region) { r.inj = in } }

// New reserves a region of windows equally sized windows of windowSize
// bytes each. Windows can be added later with Ensure; every window starts
// reserved (uncommitted).
func New(windowSize uint64, windows int, opts ...Option) (*Region, error) {
	if windowSize == 0 {
		return nil, fmt.Errorf("mem: window size must be positive")
	}
	if windows < 0 {
		return nil, fmt.Errorf("mem: window count %d must be non-negative", windows)
	}
	r := &Region{winSize: windowSize}
	for _, o := range opts {
		o(r)
	}
	if err := r.Ensure(windows); err != nil {
		r.Release()
		return nil, err
	}
	// Regions are owned by allocator stacks, which have no destructor in
	// the layer contract; the finalizer returns the address space when a
	// stack (a conformance-suite build, a bench cell) becomes garbage.
	// Consequence for callers: a []byte escaping Window/Bytes does NOT
	// keep the Region alive (the GC cannot trace mapped memory) — byte
	// views are valid only while the Region stays reachable, which the
	// Window/Bytes docs make part of the contract.
	runtime.SetFinalizer(r, (*Region).Release)
	return r, nil
}

// SetEventSink installs the flight-recorder publish hook for the
// degradation ladder: every counted rung (failed reserve/commit/decommit)
// is published with the window index as operand a. Install during stack
// construction; nil uninstalls.
func (r *Region) SetEventSink(fn func(event string, a, b uint64)) {
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// emit publishes a ladder event. Called with mu held; nil-safe.
func (r *Region) emit(event string, a uint64) {
	if r.sink != nil {
		r.sink(event, a, 0)
	}
}

// Mapped reports whether this platform really maps and unmaps pages
// (Linux) or runs the portable bookkeeping fallback.
func Mapped() bool { return osMapped }

// WindowSize returns the bytes per window.
func (r *Region) WindowSize() uint64 { return r.winSize }

// Windows returns the number of reserved windows.
func (r *Region) Windows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.wins)
}

// Ensure reserves windows until the region holds at least n of them.
// Existing windows and their lifecycle states are untouched.
func (r *Region) Ensure(n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.wins) < n {
		buf, err := r.osReserveChecked()
		if err != nil {
			r.reserveFails++
			r.emit("reserve-fail", uint64(len(r.wins)))
			return fmt.Errorf("mem: reserving window %d (%d bytes): %w", len(r.wins), r.winSize, err)
		}
		r.wins = append(r.wins, &window{buf: buf})
	}
	return nil
}

// osReserveChecked runs the reserve fault check and then the platform
// reserve. Called with mu held.
func (r *Region) osReserveChecked() ([]byte, error) {
	if err := r.inj.Check(fault.Reserve); err != nil {
		return nil, err
	}
	return osReserve(r.winSize)
}

// Injector returns the region's fault injector (nil when none was
// installed) so layers above can surface its counters.
func (r *Region) Injector() *fault.Injector { return r.inj }

func (r *Region) window(k int) *window {
	if k < 0 || k >= len(r.wins) {
		panic(fmt.Sprintf("mem: window %d of a %d-window region", k, len(r.wins)))
	}
	return r.wins[k]
}

// Commit makes window k usable and resident; committing a committed
// window is a no-op. A commit after a decommit (a recommit) hands back a
// zero-filled window.
func (r *Region) Commit(k int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.window(k)
	if w.committed {
		return nil
	}
	if err := r.inj.Check(fault.Commit); err != nil {
		r.commitFails++
		r.emit("commit-fail", uint64(k))
		return fmt.Errorf("mem: committing window %d: %w", k, err)
	}
	if err := osProtectRW(w.buf); err != nil {
		r.commitFails++
		r.emit("commit-fail", uint64(k))
		return fmt.Errorf("mem: committing window %d: %w", k, err)
	}
	osPopulate(w.buf)
	w.committed = true
	r.commits++
	if w.decommitted {
		r.recommits++
	}
	return nil
}

// Decommit returns window k's pages to the OS and fences the window off;
// decommitting an uncommitted window is a no-op. The caller must
// guarantee no live chunk references the window — the elastic lifecycle's
// draining → zero-live fence (DESIGN.md) is exactly that guarantee.
func (r *Region) Decommit(k int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.window(k)
	if !w.committed {
		return nil
	}
	err := r.inj.Check(fault.Decommit)
	if err == nil {
		err = osDecommit(w.buf)
	}
	if err != nil {
		// The window stays committed: a failed decommit loses the RSS
		// return, not the window — the caller retries on a later pass.
		r.decFails++
		r.emit("decommit-fail", uint64(k))
		return fmt.Errorf("mem: decommitting window %d: %w", k, err)
	}
	w.committed = false
	w.decommitted = true
	r.decommits++
	return nil
}

// Committed reports window k's lifecycle state.
func (r *Region) Committed(k int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window(k).committed
}

// CommitMap returns the per-window commit states, index-aligned with the
// router's slot table when the region backs one.
func (r *Region) CommitMap() []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]bool, len(r.wins))
	for k, w := range r.wins {
		out[k] = w.committed
	}
	return out
}

// Window returns window k's bytes. The window must be committed: reading
// or writing a reserved or decommitted window faults on Linux, so the
// panic here is the portable version of that fault.
//
// Lifetime: the returned slice is a view of OS-mapped memory, so it does
// not keep the Region alive the way a heap slice keeps its array alive.
// It is valid only while the window stays committed AND the Region stays
// reachable — let the Region (in practice: the allocator stack) be
// garbage-collected and the finalizer unmaps the pages under the slice.
func (r *Region) Window(k int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.window(k)
	if !w.committed {
		panic(fmt.Sprintf("mem: Window(%d) on an uncommitted window", k))
	}
	return w.buf
}

// Bytes returns the [off, off+size) view of committed window k. A range
// outside the window panics, like an uncommitted window does.
func (r *Region) Bytes(k int, off, size uint64) []byte {
	b := r.Window(k)
	if off+size > r.winSize || off+size < off {
		panic(fmt.Sprintf("mem: window %d range [%d,%d) outside %d bytes", k, off, off+size, r.winSize))
	}
	return b[off : off+size : off+size]
}

// Stats returns a consistent snapshot of the commit accounting.
func (r *Region) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		ReservedBytes: uint64(len(r.wins)) * r.winSize,
		Commits:       r.commits,
		Decommits:     r.decommits,
		Recommits:     r.recommits,
		ReserveFails:  r.reserveFails,
		CommitFails:   r.commitFails,
		DecommitFails: r.decFails,
	}
	for _, w := range r.wins {
		if w.committed {
			s.CommittedBytes += r.winSize
		}
	}
	return s
}

// Release unmaps every window. The region must not be used afterwards;
// calling Release twice is safe. Stacks normally never call it — the
// finalizer set in New covers them — but tests and short-lived tools can
// return the address space deterministically.
func (r *Region) Release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.wins {
		if w.buf != nil {
			osRelease(w.buf)
		}
		w.buf = nil
		w.committed = false
	}
	r.wins = nil
}
