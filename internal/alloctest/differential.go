package alloctest

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/multi"
	"repro/internal/slab"
)

// RunDifferential drives a long random operation sequence — single and
// batched allocations, single and batched frees, quiescent Scrubs —
// against a map-based oracle, and fails on any divergence:
//
//   - no double-hand-out: a delivered chunk never overlaps a live one
//     (checked unit-by-unit against the oracle's occupancy map);
//   - correct ChunkSize: every live offset reports exactly the reserved
//     size of its class, at every step including right after a Scrub;
//   - stats reconciliation: after draining and scrubbing, every layer of
//     the stack reports as many frees as allocations.
//
// Operations are driven through a per-worker handle (so front-end
// magazines and the depot engage) and through the allocator's batched
// convenience contract, exercising both faces of every layer.
//
// When the stack contains an elastic capacity manager, the sequence
// additionally interleaves lifecycle transitions — Poll steps plus forced
// Grow and Shrink decisions — between the allocator operations, so every
// safety property above is re-checked across instance-set growth, drains
// (frees landing by offset on draining instances) and retirements. The
// offset-space span is re-read on every admission because grows widen it.
func RunDifferential(t *testing.T, build Builder) {
	t.Helper()
	const total, minSize, maxSize = 1 << 16, 8, 1 << 12
	for _, seed := range []int64{1, 7, 42} {
		a := build(t, total, minSize, maxSize)
		differentialSequence(t, a, seed, total, minSize)
	}
}

// oracleChunk is the oracle's record of one delivered chunk.
type oracleChunk struct {
	off      uint64
	reserved uint64
}

func differentialSequence(t *testing.T, a alloc.Allocator, seed int64, total, minSize uint64) {
	t.Helper()
	geo := a.Geometry()
	mgr := alloc.Find[*elastic.Manager](a)
	sl := alloc.Find[*slab.Allocator](a)
	rng := rand.New(rand.NewSource(seed))
	h := a.NewHandle()

	var live []oracleChunk
	occupied := map[uint64]bool{} // allocation-unit slot -> taken

	// sizeFor picks a request size for the single-alloc paths. Slab
	// stacks take class-boundary and non-power-of-two sizes half the
	// time — cutoff±1, the cutoff itself, arbitrary odd sizes — so run
	// carving, the half-step classes and the pass-through boundary all
	// get oracle coverage; other stacks keep the power-of-two ladder.
	sizeFor := func() uint64 {
		size := uint64(1) << (3 + rng.Intn(10)) // 8..4096
		if sl != nil && sl.Cutoff() != 0 && rng.Intn(2) == 0 {
			switch rng.Intn(4) {
			case 0:
				size = sl.Cutoff() - 1
			case 1:
				size = sl.Cutoff()
			case 2:
				size = sl.Cutoff() + 1
			default:
				size = 1 + uint64(rng.Int63n(int64(geo.MaxSize)))
			}
		}
		return size
	}

	admit := func(step int, off, size uint64, how string) {
		// The buddy reserves the geometry's power-of-two rounding; a slab
		// layer reserves the size class instead — unless its runs were
		// exhausted and the request fell through to the buddy, so both
		// answers are legitimate. ChunkSize must report whichever extent
		// was actually reserved; class extents are only MinSize-aligned.
		reserved := geo.SizeOfLevel(geo.LevelForSize(size))
		align := reserved
		if cs, ok := a.(alloc.ChunkSizer); ok {
			got := cs.ChunkSize(off)
			matched := got == reserved
			if sl != nil && !matched {
				if cls, slabbed := sl.ReservedFor(size); slabbed && got == cls {
					reserved, align, matched = cls, minSize, true
				}
			}
			if !matched {
				t.Fatalf("seed %d step %d: ChunkSize(%#x) = %d, want reserved %d",
					seed, step, off, got, reserved)
			}
		}
		// Re-read the span per admission: elastic grows widen it mid-run.
		span := alloc.SpanOf(a)
		if off%align != 0 || off+reserved > span {
			t.Fatalf("seed %d step %d: %s(%d) -> [%d,%d) misaligned or outside the %d-byte span",
				seed, step, how, size, off, off+reserved, span)
		}
		for u := off / minSize; u < (off+reserved)/minSize; u++ {
			if occupied[u] {
				t.Fatalf("seed %d step %d: %s(%d) at %#x double-hands-out unit %d",
					seed, step, how, size, off, u)
			}
			occupied[u] = true
		}
		live = append(live, oracleChunk{off, reserved})
	}
	release := func(step, k int) oracleChunk {
		c := live[k]
		for u := c.off / minSize; u < (c.off+c.reserved)/minSize; u++ {
			if !occupied[u] {
				t.Fatalf("seed %d step %d: oracle lost unit %d of [%d,%d)", seed, step, u, c.off, c.off+c.reserved)
			}
			delete(occupied, u)
		}
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
		return c
	}

	steps := 4000
	if testing.Short() {
		steps = 800
	}
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // single alloc through the handle
			size := sizeFor()
			if off, ok := h.Alloc(size); ok {
				admit(step, off, size, "Alloc")
			}
		case op < 6 && len(live) > 0: // single free through the handle
			c := release(step, rng.Intn(len(live)))
			h.Free(c.off)
		case op < 7: // batched alloc through the bulk contract
			size := uint64(1) << (3 + rng.Intn(8)) // 8..1024
			// Half the batches use sizes 7/8/9 — one lane short of a packed
			// status word, exactly one word, and one lane past it — so the
			// bulk scan's word-aligned rover is exercised mid-word, on the
			// boundary, and straddling it.
			var n int
			switch rng.Intn(6) {
			case 0:
				n = 7
			case 1:
				n = 8
			case 2:
				n = 9
			default:
				n = 1 + rng.Intn(48)
			}
			offs := alloc.HandleAllocBatch(h, size, n)
			for _, off := range offs {
				admit(step, off, size, "AllocBatch")
			}
			// Scrub right after a word-straddling batch: the rebuild writes
			// whole packed words from the oracle-visible live set, so any
			// stray bit the batch left in a neighbouring lane of its tail
			// word would surface as a ChunkSize or occupancy divergence on
			// the very next operations.
			if len(offs) > 0 && n <= 9 && rng.Intn(2) == 0 {
				if s, ok := a.(alloc.Scrubber); ok {
					s.Scrub()
					for _, c := range live {
						if cs, ok := a.(alloc.ChunkSizer); ok {
							if got := cs.ChunkSize(c.off); got != c.reserved {
								t.Fatalf("seed %d step %d: after word-boundary Scrub, ChunkSize(%#x) = %d, want %d",
									seed, step, c.off, got, c.reserved)
							}
						}
					}
				}
			}
		case op < 8 && len(live) > 1: // batched free through the bulk contract
			n := 1 + rng.Intn(len(live))
			batch := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				batch = append(batch, release(step, rng.Intn(len(live))).off)
			}
			alloc.HandleFreeBatch(h, batch)
		case op < 9: // quiescent maintenance: flush residue, then re-verify
			if s, ok := a.(alloc.Scrubber); ok {
				s.Scrub()
				for _, c := range live {
					if cs, ok := a.(alloc.ChunkSizer); ok {
						if got := cs.ChunkSize(c.off); got != c.reserved {
							t.Fatalf("seed %d step %d: after Scrub, ChunkSize(%#x) = %d, want %d",
								seed, step, c.off, got, c.reserved)
						}
					}
				}
			}
		default: // convenience-path alloc (bypasses magazines)
			size := sizeFor()
			if off, ok := a.Alloc(size); ok {
				admit(step, off, size, "conv Alloc")
			}
		}
		// Elastic lifecycle interleave: advance the capacity manager
		// between allocator operations. Poll completes pending retires and
		// applies the watermark policy; forced Grow/Shrink decisions make
		// sure instance-set transitions happen regardless of where the
		// random walk left utilization. Errors (at the cap, at the floor)
		// are legitimate outcomes here.
		if mgr != nil && rng.Intn(12) == 0 {
			switch rng.Intn(4) {
			case 0, 1:
				mgr.Poll()
			case 2:
				mgr.Grow()
			case 3:
				mgr.Shrink()
			}
		}
	}

	// Drain through the batched path, quiesce, and reconcile stats.
	var rest []uint64
	for _, c := range live {
		rest = append(rest, c.off)
	}
	alloc.HandleFreeBatch(h, rest)
	if s, ok := a.(alloc.Scrubber); ok {
		s.Scrub()
	}
	if mgr != nil {
		// Everything is freed and scrubbed (magazines flushed, depot
		// drained), so every pending drain is at zero live: one Poll must
		// complete every retirement. A slot still draining afterwards
		// means the live accounting leaked.
		mgr.Poll()
		for _, info := range mgr.Router().InstanceInfos() {
			if info.State == multi.Draining {
				t.Fatalf("seed %d: slot %d still draining after full drain+scrub (live=%d, liveBytes=%d)",
					seed, info.Slot, info.Live, info.LiveBytes)
			}
			if info.State == multi.Active && (info.Live != 0 || info.LiveBytes != 0) {
				t.Fatalf("seed %d: drained slot %d reports live=%d liveBytes=%d",
					seed, info.Slot, info.Live, info.LiveBytes)
			}
		}
	}
	for _, layer := range alloc.StackStats(a) {
		if layer.Stats.Allocs != layer.Stats.Frees {
			t.Fatalf("seed %d: layer %q unbalanced after drain: %d allocs vs %d frees",
				seed, layer.Layer, layer.Stats.Allocs, layer.Stats.Frees)
		}
	}
	mustAllocAfterDrain(t, a, geo.MaxSize, "differential drain")
}
