// Package spinlock provides the blocking synchronization substrate used by
// every spin-lock baseline in the evaluation (1lvl-sl, 4lvl-sl, buddy-sl,
// linux-buddy). Three classic flavors are provided so the lock itself can
// be ablated: test-and-set, test-and-test-and-set with exponential backoff,
// and a ticket lock (the fair lock used by the Linux kernel of the paper's
// era).
//
// In every flavor Lock ends with an atomic read-modify-write or load that
// observes the previous holder's atomic release in Unlock. Those two edges
// are the baselines' only synchronization: internal/bunch's SL discipline
// updates its tree words and index with plain stores inside the critical
// section, and they are race-free (also to the race detector) only because
// each holder's stores happen before the next holder's acquisition.
//
// Spinning goroutines periodically yield to the scheduler so a lock holder
// that has been descheduled can run; this mirrors the preemption behaviour
// the paper discusses for CPU-stealing contexts and keeps the benchmarks
// live when worker count exceeds GOMAXPROCS.
package spinlock

import (
	"runtime"
	"sync/atomic"
)

// Locker is the subset of sync.Locker the baselines rely on.
type Locker interface {
	Lock()
	Unlock()
}

// Kind selects a spin-lock implementation by name (for CLI/ablation use).
type Kind string

const (
	KindTAS    Kind = "tas"
	KindTTAS   Kind = "ttas"
	KindTicket Kind = "ticket"
)

// New returns a fresh lock of the given kind; it defaults to TTAS, the
// flavor closest to the pthread spin-locks used in the paper's baselines.
func New(kind Kind) Locker {
	switch kind {
	case KindTAS:
		return new(TAS)
	case KindTicket:
		return new(Ticket)
	default:
		return new(TTAS)
	}
}

// yieldEvery bounds the number of consecutive busy iterations before the
// spinner offers the processor back to the scheduler.
const yieldEvery = 128

// TAS is a plain test-and-set lock: every acquisition attempt is an RMW,
// which maximizes cache-line bouncing — the worst-case baseline.
type TAS struct {
	v atomic.Uint32
}

func (l *TAS) Lock() {
	spins := 0
	for !l.v.CompareAndSwap(0, 1) {
		if spins++; spins%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

func (l *TAS) Unlock() { l.v.Store(0) }

// TTAS is a test-and-test-and-set lock with bounded exponential backoff:
// spinners wait on a plain load (shared cache line state) and attempt the
// RMW only when the lock is observed free.
type TTAS struct {
	v atomic.Uint32
}

func (l *TTAS) Lock() {
	backoff := 1
	spins := 0
	for {
		if l.v.Load() == 0 && l.v.CompareAndSwap(0, 1) {
			return
		}
		for i := 0; i < backoff; i++ {
			if spins++; spins%yieldEvery == 0 {
				runtime.Gosched()
			}
		}
		if backoff < 1024 {
			backoff <<= 1
		}
	}
}

func (l *TTAS) Unlock() { l.v.Store(0) }

// Ticket is a fair FIFO spin lock: acquirers take a ticket and spin until
// the owner counter reaches it.
type Ticket struct {
	next  atomic.Uint32
	owner atomic.Uint32
}

func (l *Ticket) Lock() {
	t := l.next.Add(1) - 1
	spins := 0
	for l.owner.Load() != t {
		if spins++; spins%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

func (l *Ticket) Unlock() { l.owner.Add(1) }
