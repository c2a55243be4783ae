//go:build !linux

package mem

// osMapped: the portable fallback keeps one heap []byte per window;
// commit and decommit are bookkeeping only, so the stack builds and the
// lifecycle state machine behaves identically everywhere — the RSS
// effect is simply absent.
const osMapped = false

// osReserve allocates the window's backing slice up front. Go zero-fills
// it and the OS pages it in lazily, which is as close to "reserved" as a
// portable allocation gets.
func osReserve(winSize uint64) ([]byte, error) { return make([]byte, winSize), nil }

// osProtectRW is bookkeeping: the slice already exists and is writable.
func osProtectRW(buf []byte) error { return nil }

// osPopulate is bookkeeping: Go already zero-filled the slice.
func osPopulate(buf []byte) {}

// osDecommit zero-fills the window so a later recommit observes the same
// "fresh window is zero" invariant MADV_DONTNEED gives the Linux backend.
func osDecommit(buf []byte) error {
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

// osRelease lets the GC take the slice.
func osRelease(buf []byte) {}
