package bunch

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/status"
	"repro/internal/verify"
)

func TestSequentialAllocFreeReuse(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1024, 8, 1024)
		seen := map[uint64]bool{}
		var offs []uint64
		for i := 0; i < 128; i++ {
			off, ok := a.Alloc(8)
			if !ok {
				t.Fatalf("k=%d: alloc %d failed with free memory", k, i)
			}
			if seen[off] {
				t.Fatalf("k=%d: alloc %d returned already-delivered offset %d", k, i, off)
			}
			seen[off] = true
			offs = append(offs, off)
		}
		if _, ok := a.Alloc(8); ok {
			t.Fatalf("k=%d: alloc succeeded on an exhausted instance", k)
		}
		for _, off := range offs {
			a.Free(off)
		}
		// After releasing everything the full region must be allocatable again.
		if off, ok := a.Alloc(1024); !ok || off != 0 {
			t.Fatalf("k=%d: whole-region alloc after drain = (%d,%v), want (0,true)", k, off, ok)
		}
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1024, 8, 1024)
		small, ok := a.Alloc(8)
		if !ok {
			t.Fatalf("k=%d: small alloc failed", k)
		}
		// The 512-byte half not containing the 8-byte chunk must be available.
		big, ok := a.Alloc(512)
		if !ok {
			t.Fatalf("k=%d: half-region alloc failed alongside a small chunk", k)
		}
		if (small < 512) == (big < 512) {
			t.Fatalf("k=%d: overlapping halves: small=%d big=%d", k, small, big)
		}
		// But the full region must not be.
		if _, ok := a.Alloc(1024); ok {
			t.Fatalf("k=%d: whole-region alloc succeeded while fragmented", k)
		}
		a.Free(small)
		a.Free(big)
		if _, ok := a.Alloc(1024); !ok {
			t.Fatalf("k=%d: whole-region alloc failed after coalescing", k)
		}
	}
}

func TestQuiescentTreeClean(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 4096, 8, 4096)
		var offs []uint64
		for _, size := range []uint64{8, 16, 64, 8, 256, 32} {
			off, ok := a.Alloc(size)
			if !ok {
				t.Fatalf("k=%d: alloc(%d) failed", k, size)
			}
			offs = append(offs, off)
		}
		for _, off := range offs {
			a.Free(off)
		}
		if i := dirtyWord(a); i >= 0 {
			t.Fatalf("k=%d: word %d not clean after drain: %#x", k, i, a.words[i].Load())
		}
	}
}

// TestConvenienceHandlesStayBounded regresses the convenience-path
// registration leak: the allocator-level Alloc, Free, AllocBatch and
// FreeBatch borrow a registered handle, and a pool that drops idle
// handles at GC left every dropped one registered forever.
func TestConvenienceHandlesStayBounded(t *testing.T) {
	for _, k := range heights {
		a := mustNew(t, k, 1<<16, 64, 1<<12)
		for i := 0; i < 100; i++ {
			off, ok := a.Alloc(64)
			if !ok {
				t.Fatalf("k=%d: alloc %d failed", k, i)
			}
			runtime.GC()
			a.Free(off)
			runtime.GC()
			a.FreeBatch(a.AllocBatch(64, 4))
		}
		if n := a.Handles(); n > 2 {
			t.Fatalf("k=%d: %d handles registered after 100 sequential convenience round trips", k, n)
		}
	}
}

// TestConcurrentNoOverlap runs eight workers of mixed single and batched
// allocations (AllocBatch of 1-16 chunks, released through FreeBatch) and
// single frees at both heights, claiming every delivered chunk at its
// ChunkSize in one shared verify.Checker: an overlap between any two live
// chunks, batched or not, is an S1 violation the checker counts. The
// heights are a loop, not subtests, so CI's race step selects the test by
// its Concurrent name.
func TestConcurrentNoOverlap(t *testing.T) {
	const workers = 8
	for _, k := range heights {
		a := mustNew(t, k, 1<<20, 8, 1<<14)
		chk := verify.NewChecker(a.geo.Total, a.geo.MinSize)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := a.newHandle()
				var live [][]uint64 // one delivery each: a single chunk or a batch
				claim := func(offs []uint64) {
					for _, off := range offs {
						chk.Claim(off, a.ChunkSize(off))
					}
					live = append(live, offs)
				}
				release := func(offs []uint64) {
					for _, off := range offs {
						chk.Release(off, a.ChunkSize(off))
					}
					if len(offs) == 1 {
						h.Free(offs[0])
					} else {
						h.FreeBatch(offs)
					}
				}
				sizes := []uint64{8, 8, 8, 128, 128, 1024, 1 << 14}
				rng := uint64(w)*2654435761 + 12345
				for i := 0; i < 20000; i++ {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					if len(live) > 0 && rng%3 == 0 {
						j := int(rng >> 8 % uint64(len(live)))
						offs := live[j]
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						release(offs)
						continue
					}
					size := sizes[rng%uint64(len(sizes))]
					if rng>>32%4 == 0 {
						if offs := h.AllocBatch(size, 1+int(rng>>40%16)); len(offs) > 0 {
							claim(offs)
						}
					} else if off, ok := h.Alloc(size); ok {
						claim([]uint64{off})
					}
				}
				for _, offs := range live {
					release(offs)
				}
			}()
		}
		wg.Wait()
		// Conservative occupied/coalescing residue on interior nodes is a
		// documented property of racing releases (the unmark climb stops
		// early), but a stale OCC bit would be a real leak: OCC is only ever
		// cleared by the owner's release, which all completed above.
		residue := 0
		for i, w := range words(a) {
			if w&status.Fill(0, status.LanesPerWord, status.Occ) != 0 {
				t.Fatalf("k=%d: word %d still has an OCC field after concurrent drain: %#x", k, i, w)
			}
			if w != 0 {
				residue++
			}
		}
		if a.LiveNodes() != 0 {
			t.Fatalf("k=%d: %d live index entries after drain", k, a.LiveNodes())
		}
		if err := chk.Quiesced(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		t.Logf("k=%d: benign residue on %d words after drain", k, residue)
		// Scrub must restore a pristine tree on a drained instance.
		a.Scrub()
		if i := dirtyWord(a); i >= 0 {
			t.Fatalf("k=%d: word %d not clean after Scrub: %#x", k, i, a.words[i].Load())
		}
		if _, ok := a.Alloc(1 << 14); !ok {
			t.Fatalf("k=%d: max-size alloc failed after drain and Scrub", k)
		}
	}
}
