package stack_test

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/frontend"
	"repro/internal/stack"
)

// TestGeometryEdgeCases drives the degenerate tree shapes through both
// leaf variants and the stacked compositions: a single-unit region
// (Depth 0), a single-level tree (Depth 1), the smallest legal Total,
// MinSize==MaxSize classes, and bulk requests far larger than a
// front-end magazine. Each case fills the region through the batched
// contract, checks capacity and uniqueness, drains through the batched
// contract, and verifies the region coalesces back whole.
func TestGeometryEdgeCases(t *testing.T) {
	type shape struct {
		name                    string
		total, minSize, maxSize uint64
	}
	shapes := []shape{
		{"single-unit", 64, 64, 64},                   // Depth 0: one chunk is the whole region
		{"single-level", 128, 64, 128},                // Depth 1: one split
		{"smallest-total", 2, 1, 2},                   // the smallest non-degenerate region
		{"min-equals-max", 4096, 64, 64},              // one size class, MaxLevel == Depth
		{"min-equals-max-deep", 1 << 16, 8, 8},        // one class on a deep tree
		{"batch-over-magazine", 1 << 14, 64, 1 << 10}, // bulk >> magazine capacity (4)
	}

	type build struct {
		name string
		make func(t *testing.T, s shape) alloc.Allocator
	}
	leaf := func(variant string) func(t *testing.T, s shape) alloc.Allocator {
		return func(t *testing.T, s shape) alloc.Allocator {
			t.Helper()
			a, err := alloc.Build(variant, alloc.Config{Total: s.total, MinSize: s.minSize, MaxSize: s.maxSize})
			if err != nil {
				t.Fatalf("Build(%s): %v", variant, err)
			}
			return a
		}
	}
	stacked := func(spec stack.Spec) func(t *testing.T, s shape) alloc.Allocator {
		return func(t *testing.T, s shape) alloc.Allocator {
			t.Helper()
			sp := spec
			per := s.total
			if sp.Instances > 1 {
				per = s.total / uint64(sp.Instances)
				if per < s.maxSize || per < s.minSize {
					t.Skipf("per-instance share %d cannot serve max size %d", per, s.maxSize)
				}
			}
			sp.Per = alloc.Config{Total: per, MinSize: s.minSize, MaxSize: s.maxSize}
			st, err := stack.Build(sp)
			if err != nil {
				t.Fatalf("stack.Build: %v", err)
			}
			return st.Top
		}
	}
	// cached puts the front-end over a 4lvl-nb leaf at a magazine
	// capacity below the default stack.Build uses, so the tiny shapes
	// still overflow a magazine.
	cached := func(magCap int) func(t *testing.T, s shape) alloc.Allocator {
		return func(t *testing.T, s shape) alloc.Allocator {
			t.Helper()
			fe, err := frontend.New(leaf("4lvl-nb")(t, s), magCap)
			if err != nil {
				t.Fatalf("frontend.New: %v", err)
			}
			return fe
		}
	}
	builds := []build{
		{"1lvl-nb", leaf("1lvl-nb")},
		{"4lvl-nb", leaf("4lvl-nb")},
		{"depot-mag8", cached(8)},
		{"depot", cached(4)},
		{"depot+multi2", stacked(stack.Spec{Variant: "4lvl-nb", Depot: true, Instances: 2})},
	}

	for _, s := range shapes {
		for _, b := range builds {
			t.Run(fmt.Sprintf("%s/%s", s.name, b.name), func(t *testing.T) {
				a := b.make(t, s)
				span := alloc.SpanOf(a)
				capacity := int(span / s.minSize)

				// Fill through the bulk contract, asking for more than fits
				// (and far more than any magazine holds): the batch must
				// deliver exactly the capacity, every chunk distinct.
				got := alloc.AllocBatchOf(a, s.minSize, capacity+8)
				if len(got) != capacity {
					t.Fatalf("AllocBatch(min, capacity+8) delivered %d chunks, want %d", len(got), capacity)
				}
				seen := map[uint64]bool{}
				for _, off := range got {
					if off%s.minSize != 0 || off >= span {
						t.Fatalf("chunk %#x misaligned or outside the %d-byte span", off, span)
					}
					if seen[off] {
						t.Fatalf("chunk %#x delivered twice", off)
					}
					seen[off] = true
				}
				// A full region must refuse more, single or batched.
				if _, ok := a.Alloc(s.minSize); ok {
					t.Fatal("alloc succeeded on a full region")
				}
				if extra := alloc.AllocBatchOf(a, s.minSize, 4); len(extra) != 0 {
					t.Fatalf("batch alloc on a full region delivered %d chunks", len(extra))
				}

				// Drain in bulk and verify the region coalesces whole again.
				alloc.FreeBatchOf(a, got)
				if s, ok := a.(alloc.Scrubber); ok {
					s.Scrub()
				}
				max := s.maxSize
				if _, ok := a.Alloc(max); !ok {
					t.Fatalf("max-size alloc (%d) failed after bulk drain", max)
				}
			})
		}
	}

	// Bulk through a caching handle whose magazine is far smaller than
	// the batch: the shim must spill correctly through the magazine.
	t.Run("batch-over-magazine/handle", func(t *testing.T) {
		fe := cached(4)(t, shape{"batch-over-magazine", 1 << 14, 64, 1 << 10})
		h := fe.NewHandle()
		got := alloc.HandleAllocBatch(h, 64, 100) // 25x the magazine capacity
		if len(got) != 100 {
			t.Fatalf("handle batch delivered %d chunks, want 100", len(got))
		}
		seen := map[uint64]bool{}
		for _, off := range got {
			if seen[off] {
				t.Fatalf("chunk %#x delivered twice", off)
			}
			seen[off] = true
		}
		alloc.HandleFreeBatch(h, got)
		fe.(alloc.Scrubber).Scrub()
		if _, ok := fe.Alloc(1 << 10); !ok {
			t.Fatal("max-size alloc failed after handle bulk drain")
		}
	})
}
