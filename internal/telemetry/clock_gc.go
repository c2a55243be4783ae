//go:build gc

package telemetry

import (
	_ "unsafe" // for go:linkname
)

// nanotime is the runtime's monotonic clock: one VDSO read on Linux,
// with none of time.Now's wall-clock assembly — the cheapest "rdtsc-style"
// timestamp the gc toolchain exposes.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64
