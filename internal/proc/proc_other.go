//go:build !gc

package proc

import "unsafe"

// Dynamic reports whether Hint returns a live processor id; false here:
// this toolchain has no linknamed procPin, so Hint is only a weak
// goroutine-stack hash.
const Dynamic = false

// Hint returns a weak goroutine-scoped hash: goroutine stacks are
// distinct allocations, so shifting away the in-frame bits spreads
// goroutines over small table sizes. Stable only until the runtime moves
// the stack (growth), which is exactly why Dynamic consumers must not
// rely on it for ownership.
func Hint() int {
	var x byte
	return int(uintptr(unsafe.Pointer(&x)) >> 13)
}
