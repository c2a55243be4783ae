package verify_test

import (
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/verify"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
)

func TestCheckerDetectsOverlap(t *testing.T) {
	c := verify.NewChecker(1024, 8)
	c.Claim(0, 64)
	if c.Overlaps() != 0 {
		t.Fatal("clean claim flagged")
	}
	c.Claim(32, 64) // overlaps [32,64)
	if c.Overlaps() != 4 {
		t.Fatalf("overlaps = %d, want 4 units", c.Overlaps())
	}
}

func TestCheckerDetectsUnbacked(t *testing.T) {
	c := verify.NewChecker(1024, 8)
	c.Release(0, 16)
	if c.Unbacked() != 2 {
		t.Fatalf("unbacked = %d, want 2 units", c.Unbacked())
	}
}

func TestCheckerOccupancy(t *testing.T) {
	c := verify.NewChecker(1024, 8)
	c.Claim(0, 256)
	c.Claim(512, 256)
	if c.LiveBytes() != 512 || c.PeakBytes() != 512 {
		t.Fatalf("live/peak = %d/%d", c.LiveBytes(), c.PeakBytes())
	}
	c.Release(0, 256)
	if c.LiveBytes() != 256 || c.PeakBytes() != 512 {
		t.Fatalf("after release live/peak = %d/%d", c.LiveBytes(), c.PeakBytes())
	}
	c.Release(512, 256)
	if err := c.Quiesced(); err != nil {
		t.Fatal(err)
	}
}

func TestQuiescedReportsLeak(t *testing.T) {
	c := verify.NewChecker(1024, 8)
	c.Claim(0, 64)
	err := c.Quiesced()
	if err == nil || !strings.Contains(err.Error(), "unit") {
		t.Fatalf("err = %v", err)
	}
}

// brokenAllocator returns the same offset twice — the wrapper must catch it.
type brokenAllocator struct {
	alloc.Allocator
}

func (b *brokenAllocator) NewHandle() alloc.Handle { return &brokenHandle{} }
func (b *brokenAllocator) ChunkSize(uint64) uint64 { return 64 }

type brokenHandle struct{ stats alloc.Stats }

func (h *brokenHandle) Alloc(uint64) (uint64, bool) { return 0, true } // always offset 0!
func (h *brokenHandle) Free(uint64)                 {}
func (h *brokenHandle) Stats() *alloc.Stats         { return &h.stats }

func TestWrapperCatchesBrokenAllocator(t *testing.T) {
	base, err := alloc.Build("1lvl-nb", alloc.Config{Total: 1024, MinSize: 8, MaxSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	v, err := verify.Wrap(&brokenAllocator{Allocator: base})
	if err != nil {
		t.Fatal(err)
	}
	h := v.NewHandle()
	h.Alloc(64)
	h.Alloc(64) // same offset again
	if v.Checker().Overlaps() == 0 {
		t.Fatal("double-delivery not detected")
	}
}

func TestWrapRequiresChunkSizer(t *testing.T) {
	if _, err := verify.Wrap(plainAllocator{}); err == nil {
		t.Fatal("allocator without ChunkSize accepted")
	}
}

type plainAllocator struct{}

func (plainAllocator) Name() string                { return "plain" }
func (plainAllocator) Geometry() geometry.Geometry { return geometry.Geometry{} }
func (plainAllocator) Alloc(uint64) (uint64, bool) { return 0, false }
func (plainAllocator) Free(uint64)                 {}
func (plainAllocator) NewHandle() alloc.Handle     { return nil }
func (plainAllocator) Stats() alloc.Stats          { return alloc.Stats{} }

func TestStressEveryVariantClean(t *testing.T) {
	cfg := verify.StressConfig{
		Workers:  8,
		Ops:      20000,
		Sizes:    []uint64{8, 64, 512, 4096},
		FreeBias: 40,
		MaxLive:  32,
		Seed:     7,
	}
	if testing.Short() {
		cfg.Ops = 4000
	}
	for _, variant := range alloc.Names() {
		variant := variant
		t.Run(variant, func(t *testing.T) {
			a, err := alloc.Build(variant, alloc.Config{Total: 1 << 22, MinSize: 8, MaxSize: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := verify.Stress(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("stress failed: %s", rep)
			}
			if rep.Allocs == 0 || rep.PeakBytes == 0 {
				t.Fatalf("degenerate run: %s", rep)
			}
		})
	}
}

func TestStressDeterministicPeak(t *testing.T) {
	// Same seed, same single-worker schedule: identical op counts and
	// occupancy peak (placement may differ across variants, peaks align
	// for the same variant).
	mk := func() verify.Report {
		a, err := alloc.Build("1lvl-nb", alloc.Config{Total: 1 << 20, MinSize: 8, MaxSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := verify.Stress(a, verify.StressConfig{
			Workers: 1, Ops: 5000, Sizes: []uint64{8, 128}, FreeBias: 30, MaxLive: 16, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := mk(), mk()
	if r1.Allocs != r2.Allocs || r1.Frees != r2.Frees || r1.PeakBytes != r2.PeakBytes {
		t.Fatalf("non-deterministic single-worker stress: %s vs %s", r1, r2)
	}
}

func TestStressConfigValidation(t *testing.T) {
	a, err := alloc.Build("1lvl-nb", alloc.Config{Total: 1024, MinSize: 8, MaxSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Stress(a, verify.StressConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
