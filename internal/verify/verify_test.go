package verify_test

import (
	"fmt"
	"math/rand"
	"regexp"
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

// brokenAllocator returns the same offset twice — Stress must catch it.
type brokenAllocator struct {
	alloc.Allocator
}

func (b *brokenAllocator) NewHandle() alloc.Handle { return &brokenHandle{} }
func (b *brokenAllocator) ChunkSize(uint64) uint64 { return 64 }

type brokenHandle struct{ stats alloc.Stats }

func (h *brokenHandle) Alloc(uint64) (uint64, bool) { return 0, true } // always offset 0!
func (h *brokenHandle) Free(uint64)                 {}
func (h *brokenHandle) Stats() *alloc.Stats         { return &h.stats }

// oneWorker is a single-worker schedule that only allocates, so every
// chunk it is handed stays live until the final drain.
func oneWorker(sizes ...uint64) verify.StressConfig {
	return verify.StressConfig{Workers: 1, Ops: 16, Sizes: sizes, Seed: 1}
}

func TestStressCatchesBrokenAllocator(t *testing.T) {
	base, err := alloc.Build("1lvl-nb", alloc.Config{Total: 1024, MinSize: 8, MaxSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Stress(&brokenAllocator{Allocator: base}, oneWorker(64))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overlaps == 0 {
		t.Fatalf("double-delivery not detected: %s", rep)
	}
}

// shortChunks is a layer whose handles serve a 4 KiB request with a
// 2 KiB chunk. ChunkSize is the leaf's, so it reports the 2 KiB the
// chunk really holds: only a claim of the requested extent catches it.
type shortChunks struct{ alloc.Layer }

func (s *shortChunks) NewHandle() alloc.Handle { return &shortHandle{s.Layer.NewHandle()} }

type shortHandle struct{ alloc.Handle }

func (h *shortHandle) Alloc(size uint64) (uint64, bool) {
	if size == 4096 {
		size = 2048
	}
	return h.Handle.Alloc(size)
}

// TestStressCatchesUnderDelivery runs one worker over shortChunks on a
// fresh 64 KiB leaf, which places its 16 chunks side by side from offset
// 0: each 4 KiB request, claimed at 4 KiB, overlaps the chunk delivered
// next to it.
func TestStressCatchesUnderDelivery(t *testing.T) {
	leaf, err := alloc.Build("1lvl-nb", alloc.Config{Total: 1 << 16, MinSize: 8, MaxSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	l, err := alloc.NewLayer(leaf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := verify.Stress(&shortChunks{l}, oneWorker(4096))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overlaps == 0 {
		t.Fatalf("chunks smaller than requested not detected: %s", rep)
	}
}

// offsetZero hands out offset 0 for every request and sizes it as the
// last request's power-of-two rounding, so only occupancy can catch it.
type offsetZero struct {
	alloc.Allocator
	last uint64
}

func (z *offsetZero) Alloc(size uint64) (uint64, bool) {
	geo := z.Geometry()
	z.last = geo.SizeOfLevel(geo.LevelForSize(size))
	return 0, true
}
func (z *offsetZero) Free(uint64)             {}
func (z *offsetZero) ChunkSize(uint64) uint64 { return z.last }
func (z *offsetZero) NewHandle() alloc.Handle { return &zeroHandle{z: z} }

type zeroHandle struct {
	z     *offsetZero
	stats alloc.Stats
}

func (h *zeroHandle) Alloc(size uint64) (uint64, bool) { return h.z.Alloc(size) }
func (h *zeroHandle) Free(uint64)                      {}
func (h *zeroHandle) Stats() *alloc.Stats              { return &h.stats }

// lyingSizes reports twice the extent each chunk really holds.
type lyingSizes struct{ alloc.Layer }

func (l *lyingSizes) ChunkSize(off uint64) uint64 { return 2 * l.Layer.ChunkSize(off) }

// uncountedFrees is a layer whose Frees never count.
type uncountedFrees struct{ alloc.Layer }

func (u *uncountedFrees) LayerStats() []alloc.LayerStats {
	s := u.Layer.Stats()
	s.Frees = 0
	return append([]alloc.LayerStats{{Layer: "uncounted", Stats: s}}, u.Layer.LayerStats()...)
}

// TestOracleCatchesBrokenAllocators runs the oracle's walk, drain and
// reconcile over a sound leaf and over three broken wrappers of it; each
// broken one must be reported once, through fail, naming the failing
// step and operation.
func TestOracleCatchesBrokenAllocators(t *testing.T) {
	layer := func(a alloc.Allocator) alloc.Layer {
		l, err := alloc.NewLayer(a)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cases := []struct {
		name string
		wrap func(alloc.Allocator) alloc.Allocator
		want string // regexp of the one report; "" for none
	}{
		{"sound", func(a alloc.Allocator) alloc.Allocator { return a }, ""},
		{"offset-zero", func(a alloc.Allocator) alloc.Allocator { return &offsetZero{Allocator: a} },
			`^step \d+: [a-z -]*Alloc(Batch)?\(\d+\) at 0x0 double-hands-out`},
		{"lying-chunk-size", func(a alloc.Allocator) alloc.Allocator { return &lyingSizes{layer(a)} },
			`^step \d+: [a-z -]*Alloc(Batch)?\(\d+\) at 0x[0-9a-f]+: ChunkSize = \d+, want reserved \d+$`},
		{"uncounted-frees", func(a alloc.Allocator) alloc.Allocator { return &uncountedFrees{layer(a)} },
			`^step 2000: reconcile: layer "uncounted" unbalanced: \d+ allocs vs 0 frees$`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			leaf, err := alloc.Build("1lvl-nb", alloc.Config{Total: 1 << 14, MinSize: 8, MaxSize: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			var reports []string
			o := verify.NewOracle(c.wrap(leaf), func(format string, args ...any) {
				reports = append(reports, fmt.Sprintf(format, args...))
			})
			if o.Walk(rand.NewSource(1), 2000) {
				o.Drain()
				o.Reconcile()
			}
			switch {
			case c.want == "" && len(reports) != 0:
				t.Fatalf("sound leaf reported %q", reports)
			case c.want == "":
			case len(reports) != 1 || !regexp.MustCompile(c.want).MatchString(reports[0]):
				t.Fatalf("reports %q, want one matching %s", reports, c.want)
			}
		})
	}
}

// panickyFree is a layer whose handles' Free panics from a chosen step of
// the oracle's walk on, and records the step it first panicked at.
type panickyFree struct {
	alloc.Layer
	step     *int // the walking oracle's Step
	from     int
	panicked int
}

func (p *panickyFree) NewHandle() alloc.Handle {
	return &panickyHandle{Handle: p.Layer.NewHandle(), p: p}
}

type panickyHandle struct {
	alloc.Handle
	p *panickyFree
}

func (h *panickyHandle) Free(off uint64) {
	if *h.p.step >= h.p.from {
		h.p.panicked = *h.p.step
		panic("injected Free panic")
	}
	h.Handle.Free(off)
}

// TestOracleReportsPanickingFree runs the walk over a stack whose Free
// panics from step 500 on: the panic must come back as the one report,
// naming the step it happened at and the Free, and the walk must return
// to its caller instead of unwinding the test binary.
func TestOracleReportsPanickingFree(t *testing.T) {
	leaf, err := alloc.Build("1lvl-nb", alloc.Config{Total: 1 << 14, MinSize: 8, MaxSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	l, err := alloc.NewLayer(leaf)
	if err != nil {
		t.Fatal(err)
	}
	p := &panickyFree{Layer: l, from: 500, panicked: -1}
	var reports []string
	o := verify.NewOracle(p, func(format string, args ...any) {
		reports = append(reports, fmt.Sprintf(format, args...))
	})
	p.step = &o.Step
	if o.Walk(rand.NewSource(1), 2000) {
		t.Fatal("walk over a panicking Free reported no divergence")
	}
	o.Drain() // frees again: a second panic, recovered but not reported
	want := fmt.Sprintf(`^step %d: Free(Batch of \d+ chunks|\(0x[0-9a-f]+\)): panic: injected Free panic$`, p.panicked)
	if p.panicked < 500 || len(reports) != 1 || !regexp.MustCompile(want).MatchString(reports[0]) {
		t.Fatalf("panicked at step %d, reports %q, want one matching %s", p.panicked, reports, want)
	}
}

func TestStressRequiresChunkSizer(t *testing.T) {
	if _, err := verify.Stress(plainAllocator{}, oneWorker(8)); err == nil {
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
