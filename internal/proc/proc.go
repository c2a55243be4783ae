// Package proc provides a cheap current-processor hint for per-P sharded
// data structures — the convenience-handle free lists of alloc.Registry
// (internal/alloc) and the telemetry event ring (internal/telemetry): an
// index that is stable for as long as the calling goroutine stays on the
// same P and cheap enough to query on every allocator operation.
//
// On the gc toolchain the hint is the runtime's own P id, read through a
// momentary procPin/procUnpin pair (the same mechanism sync.Pool uses to
// key its per-P pools). Pinning disables preemption only for the
// nanoseconds between the two calls; no lock, no syscall. The hint is
// advisory by construction — the goroutine can migrate to another P the
// instant after Hint returns — so callers must treat it as a routing
// preference, never as mutual exclusion.
//
// On other toolchains (gccgo, future ports without the linknamed
// runtime entry points) Dynamic is false and Hint degrades to a weak
// stack-address hash, which still spreads callers over the pools.
package proc

import "runtime"

// MaxHint returns the exclusive upper bound Hint can currently return:
// GOMAXPROCS on the gc toolchain. Note that GOMAXPROCS can be raised at
// runtime, so consumers sizing arrays by MaxHint must reduce later hints
// modulo their own size.
func MaxHint() int { return runtime.GOMAXPROCS(0) }
