//go:build linux

package mem

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// rss returns the process resident set in bytes via /proc/self/statm
// (field 2, in pages) — the same measurement examples/elastic gates on.
func rss(t *testing.T) uint64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(string(data))
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return pages * uint64(syscall.Getpagesize())
}

// TestMappedRSSLifecycle is the page-level ground truth of the package:
// commit raises RSS by the window size (the touch loop makes residency
// eager), decommit returns it. Margins are half the window to absorb
// unrelated runtime traffic.
func TestMappedRSSLifecycle(t *testing.T) {
	if !Mapped() {
		t.Skip("portable fallback: no RSS effect to measure")
	}
	const win = 8 << 20
	r, err := New(win, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()

	before := rss(t)
	if err := r.Commit(0); err != nil {
		t.Fatal(err)
	}
	atCommit := rss(t)
	if atCommit < before+win/2 {
		t.Fatalf("commit did not raise RSS: before=%d after=%d (want >= +%d)", before, atCommit, win/2)
	}
	if err := r.Decommit(0); err != nil {
		t.Fatal(err)
	}
	atDecommit := rss(t)
	if atDecommit > atCommit-win/2 {
		t.Fatalf("decommit did not return RSS: committed=%d decommitted=%d (want <= -%d)", atCommit, atDecommit, win/2)
	}
}
