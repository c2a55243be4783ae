//go:build linux

package mem

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"unsafe"
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
// commit raises RSS by the window size (osPopulate makes residency
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

// TestMappedCommitPathsRaiseRSS pins both ways osPopulate makes a window
// resident: the one-syscall MADV_POPULATE_WRITE path Commit takes on
// current kernels, and the per-page touch loop it falls back to. Each
// must raise RSS by the window on its own, so neither path can silently
// degrade to a lazy commit while the other keeps TestMappedRSSLifecycle
// green.
func TestMappedCommitPathsRaiseRSS(t *testing.T) {
	const win = 8 << 20
	for _, tc := range []struct {
		name string
		fill func(t *testing.T, buf []byte)
	}{
		{"populate", func(t *testing.T, buf []byte) {
			if err := osPrefault(buf); err != nil {
				t.Skipf("kernel refuses MADV_POPULATE_WRITE: %v", err)
			}
		}},
		{"touch", func(t *testing.T, buf []byte) { osTouch(buf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := osReserve(win)
			if err != nil {
				t.Fatal(err)
			}
			defer osRelease(buf)
			if err := osProtectRW(buf); err != nil {
				t.Fatal(err)
			}
			before := rss(t)
			tc.fill(t, buf)
			if after := rss(t); after < before+win/2 {
				t.Fatalf("%s did not raise RSS: before=%d after=%d (want >= +%d)", tc.name, before, after, win/2)
			}
		})
	}
}

// anonHugePages returns the AnonHugePages figure, in kB, of the
// /proc/self/smaps entry of the mapping that contains addr.
func anonHugePages(t *testing.T, addr uintptr) uint64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		var lo, hi uintptr
		if n, _ := fmt.Sscanf(line, "%x-%x", &lo, &hi); n == 2 {
			in = lo <= addr && addr < hi
			continue
		}
		if kb, ok := strings.CutPrefix(line, "AnonHugePages:"); ok && in {
			v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimSpace(kb), " kB"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	t.Fatalf("no smaps entry with AnonHugePages for %#x", addr)
	return 0
}

// TestCommitUsesHugePages pins the transparent-huge-page advice osPopulate
// gives before it populates: when the system lets a process ask for huge
// pages, a committed 4 MiB window is backed by at least one of them.
// Even a window the kernel did not place on a 2 MiB boundary covers one
// aligned 2 MiB span.
func TestCommitUsesHugePages(t *testing.T) {
	if !Mapped() {
		t.Skip("portable fallback: no mapping to inspect")
	}
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no transparent huge page support: %v", err)
	}
	if !strings.Contains(string(mode), "[always]") && !strings.Contains(string(mode), "[madvise]") {
		t.Skipf("transparent huge pages are off: %s", strings.TrimSpace(string(mode)))
	}
	const win = 4 << 20
	r, err := New(win, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if err := r.Commit(0); err != nil {
		t.Fatal(err)
	}
	addr := uintptr(unsafe.Pointer(&r.Window(0)[0]))
	if kb := anonHugePages(t, addr); kb == 0 {
		t.Fatalf("committed %d-byte window at %#x has no huge pages (THP mode %s)", win, addr, strings.TrimSpace(string(mode)))
	}
}
