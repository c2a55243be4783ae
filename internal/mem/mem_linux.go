//go:build linux

package mem

import "syscall"

// osMapped: this platform really maps and unmaps pages; decommit returns
// RSS to the OS.
const osMapped = true

// osReserve maps winSize bytes of inaccessible address space. PROT_NONE +
// MAP_NORESERVE means the reservation costs neither RSS nor commit
// charge; any touch before Commit faults.
func osReserve(winSize uint64) ([]byte, error) {
	return syscall.Mmap(-1, 0, int(winSize),
		syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS|syscall.MAP_NORESERVE)
}

// osProtectRW opens the window for access. Nothing else has happened
// yet when it fails, so a failed commit is all-or-nothing: the window is
// still fenced, a later retry starts clean.
func osProtectRW(buf []byte) error {
	return syscall.Mprotect(buf, syscall.PROT_READ|syscall.PROT_WRITE)
}

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14), which package
// syscall does not export.
const madvPopulateWrite = 23

// osPopulate makes the window resident before the commit returns —
// committed bytes are meant to reconcile with RSS, not with a lazy
// first-fault promise. One madvise(MADV_POPULATE_WRITE) prefaults the
// whole window writable; on any error (EINVAL before Linux 5.14) it falls
// back to osTouch. Before that, madvise(MADV_HUGEPAGE) asks for
// transparent huge pages, so the populate (and a later decommit) deals in
// 2 MiB pages wherever the window covers an aligned 2 MiB span. The
// advice is best effort: with THP disabled, or on a kernel without it,
// the call fails and the window gets base pages as before.
func osPopulate(buf []byte) {
	_ = syscall.Madvise(buf, syscall.MADV_HUGEPAGE)
	if osPrefault(buf) != nil {
		osTouch(buf)
	}
}

// osPrefault is the one-syscall commit path of osPopulate.
func osPrefault(buf []byte) error { return syscall.Madvise(buf, madvPopulateWrite) }

// osTouch is osPopulate's fallback: it faults one byte per page, one page
// fault each.
func osTouch(buf []byte) {
	step := syscall.Getpagesize()
	for i := 0; i < len(buf); i += step {
		buf[i] = 0
	}
}

// osDecommit gives the pages back (MADV_DONTNEED zero-fills the range and
// drops the RSS immediately) and fences the window off again, so a
// use-after-retire is a fault instead of a silent read of stale payload.
func osDecommit(buf []byte) error {
	if err := syscall.Madvise(buf, syscall.MADV_DONTNEED); err != nil {
		return err
	}
	return syscall.Mprotect(buf, syscall.PROT_NONE)
}

// osRelease unmaps the reservation.
func osRelease(buf []byte) { _ = syscall.Munmap(buf) }
