package geometry

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		total, min, max uint64
		ok              bool
	}{
		{1024, 8, 1024, true},
		{1024, 8, 256, true},
		{64, 64, 64, true},
		{1000, 8, 256, false},  // total not a power of two
		{1024, 10, 256, false}, // min not a power of two
		{1024, 8, 300, false},  // max not a power of two
		{1024, 8, 2048, false}, // max > total
		{1024, 2048, 1024, false},
		{1024, 256, 8, false}, // max < min
		{0, 8, 8, false},
		{1024, 0, 8, false},
	}
	for _, c := range cases {
		_, err := New(c.total, c.min, c.max)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d,%d) err=%v, want ok=%v", c.total, c.min, c.max, err, c.ok)
		}
	}
}

func TestDerivedShape(t *testing.T) {
	g := MustNew(1024, 8, 256)
	if g.Depth != 7 {
		t.Errorf("Depth = %d, want 7", g.Depth)
	}
	if g.MaxLevel != 2 {
		t.Errorf("MaxLevel = %d, want 2", g.MaxLevel)
	}
	if g.Nodes() != 256 || g.Leaves() != 128 {
		t.Errorf("Nodes=%d Leaves=%d, want 256/128", g.Nodes(), g.Leaves())
	}
}

func TestPaperEquations(t *testing.T) {
	// Equations (1)-(3) against the Figure 2 example tree (levels 0..3).
	g := MustNew(128, 16, 128)
	if g.Depth != 3 {
		t.Fatalf("depth = %d", g.Depth)
	}
	for n := uint64(1); n < 16; n++ {
		wantLevel := 0
		for m := n; m > 1; m >>= 1 {
			wantLevel++
		}
		if LevelOf(n) != wantLevel {
			t.Errorf("LevelOf(%d) = %d, want %d", n, LevelOf(n), wantLevel)
		}
		if got, want := g.SizeOf(n), uint64(128)>>wantLevel; got != want {
			t.Errorf("SizeOf(%d) = %d, want %d", n, got, want)
		}
		if got, want := g.OffsetOf(n), (n-1<<wantLevel)*(128>>wantLevel); got != want {
			t.Errorf("OffsetOf(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestLevelForSize(t *testing.T) {
	g := MustNew(1024, 8, 512)
	cases := []struct {
		size uint64
		want int
	}{
		{0, 7}, {1, 7}, {8, 7}, {9, 6}, {16, 6}, {17, 5},
		{512, 1}, {300, 1}, {256, 2},
	}
	for _, c := range cases {
		if got := g.LevelForSize(c.size); got != c.want {
			t.Errorf("LevelForSize(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestNavigation(t *testing.T) {
	if Left(3) != 6 || Right(3) != 7 {
		t.Error("tree navigation broken")
	}
	if AncestorAt(100, 6, 3) != 12 {
		t.Errorf("AncestorAt(100,6,3) = %d, want 12", AncestorAt(100, 6, 3))
	}
}

// Property: OffsetOf and NodeAt are inverse within a level, and a node's
// chunk nests exactly inside its parent's.
func TestQuickOffsetInverseAndNesting(t *testing.T) {
	g := MustNew(1<<20, 16, 1<<20)
	f := func(raw uint64) bool {
		n := raw%(g.Nodes()-1) + 1
		level := LevelOf(n)
		off := g.OffsetOf(n)
		if g.NodeAt(level, off) != n {
			return false
		}
		if n == 1 {
			return true
		}
		p := AncestorAt(n, level, level-1)
		pOff, pSize := g.OffsetOf(p), g.SizeOf(p)
		return off >= pOff && off+g.SizeOf(n) <= pOff+pSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: siblings tile their parent exactly (AX1-AX3: contiguity,
// alignment, size).
func TestQuickBuddyTiling(t *testing.T) {
	g := MustNew(1<<16, 8, 1<<16)
	f := func(raw uint64) bool {
		n := raw%(g.Nodes()/2-1) + 1 // any non-leaf node
		l, r := Left(n), Right(n)
		return g.OffsetOf(l) == g.OffsetOf(n) &&
			g.OffsetOf(r) == g.OffsetOf(n)+g.SizeOf(l) &&
			g.SizeOf(l)+g.SizeOf(r) == g.SizeOf(n) &&
			g.OffsetOf(l)%g.SizeOf(l) == 0 &&
			g.OffsetOf(r)%g.SizeOf(r) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: LevelForSize always yields a servable level whose chunk fits
// the request.
func TestQuickLevelForSizeFits(t *testing.T) {
	g := MustNew(1<<20, 8, 1<<14)
	f := func(raw uint64) bool {
		size := raw % g.MaxSize
		level := g.LevelForSize(size)
		if level < g.MaxLevel || level > g.Depth {
			return false
		}
		return g.SizeOfLevel(level) >= size || size < g.MinSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
