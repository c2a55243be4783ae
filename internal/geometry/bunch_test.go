package geometry

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestLeafLevels(t *testing.T) {
	g := MustNew(1<<14, 8, 1<<14) // depth 11
	for _, c := range []struct {
		k    int
		want []int
	}{
		{BunchSpan, []int{11, 7, 3}},
		{1, []int{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}},
	} {
		if got := g.LeafLevels(c.k); !slices.Equal(got, c.want) {
			t.Fatalf("LeafLevels(%d) = %v, want %v", c.k, got, c.want)
		}
		for _, l := range c.want {
			if g.LeafLevelFor(l, c.k) != l {
				t.Errorf("k=%d: materialized level %d not its own leaf level", c.k, l)
			}
		}
	}
	if g.LeafLevelFor(5, BunchSpan) == 5 || g.LeafLevelFor(0, BunchSpan) == 0 {
		t.Error("non-materialized level reported as leaf level")
	}
}

func TestLeafLevelFor(t *testing.T) {
	g := MustNew(1<<14, 8, 1<<14) // depth 11, materialized {11,7,3} at k=4
	cases := map[int]int{0: 3, 1: 3, 3: 3, 4: 7, 5: 7, 7: 7, 8: 11, 11: 11}
	for level, want := range cases {
		if got := g.LeafLevelFor(level, BunchSpan); got != want {
			t.Errorf("LeafLevelFor(%d, 4) = %d, want %d", level, got, want)
		}
		if got := g.LeafLevelFor(level, 1); got != level {
			t.Errorf("LeafLevelFor(%d, 1) = %d, want the level itself", level, got)
		}
	}
}

func TestCoveredLeaves(t *testing.T) {
	g := MustNew(1<<14, 8, 1<<14)
	// A node at a materialized level covers itself.
	if first, count := g.CoveredLeaves(1<<11, BunchSpan); first != 1<<11 || count != 1 {
		t.Errorf("CoveredLeaves(leaf) = (%d,%d)", first, count)
	}
	// A node 3 levels above a materialized level covers 8 leaves.
	if first, count := g.CoveredLeaves(1<<8, BunchSpan); first != 1<<11 || count != 8 {
		t.Errorf("CoveredLeaves(bunch root) = (%d,%d)", first, count)
	}
	// The tree root covers the top bunch's leaves at level 3.
	if first, count := g.CoveredLeaves(1, BunchSpan); first != 8 || count != 8 {
		t.Errorf("CoveredLeaves(root) = (%d,%d)", first, count)
	}
	// At k = 1 every node is its own bunch leaf.
	if first, count := g.CoveredLeaves(1<<8+5, 1); first != 1<<8+5 || count != 1 {
		t.Errorf("CoveredLeaves(k=1) = (%d,%d)", first, count)
	}
}

func TestWordsAtLevel(t *testing.T) {
	if WordsAtLevel(11) != 256 {
		t.Errorf("WordsAtLevel(11) = %d, want 256", WordsAtLevel(11))
	}
	if WordsAtLevel(1) != 1 || WordsAtLevel(0) != 1 {
		t.Error("partial top levels must still get one word")
	}
}

// TestWordsAndClimb pins the per-k footprint and climb length: at k = 1 one
// byte per node plus one word each for the three sub-word top levels, at
// k = 4 the bunch leaves only; a min-size allocation climbs one word per
// level at k = 1 and one per bunch at k = 4.
func TestWordsAndClimb(t *testing.T) {
	g := MustNew(16<<20, 8, 16<<10) // depth 21, max level 10
	for _, c := range []struct {
		k     int
		words uint64
		climb int
	}{
		{1, g.Nodes()/8 + 2, 11},
		{BunchSpan, WordsAtLevel(21) + WordsAtLevel(17) + WordsAtLevel(13) + WordsAtLevel(9) +
			WordsAtLevel(5) + WordsAtLevel(1), 2},
	} {
		if got := g.Words(c.k); got != c.words {
			t.Errorf("Words(%d) = %d, want %d", c.k, got, c.words)
		}
		if got := g.Climb(c.k); got != c.climb {
			t.Errorf("Climb(%d) = %d, want %d", c.k, got, c.climb)
		}
	}
}

// Property: every node's covered leaves land in one 8-aligned word, and
// distinct same-level nodes never share covered fields.
func TestQuickCoveredLeavesWordContainment(t *testing.T) {
	g := MustNew(1<<16, 8, 1<<16) // depth 13, materialized {13,9,5,1} at k=4
	for _, k := range []int{1, BunchSpan} {
		f := func(raw uint64) bool {
			n := raw%(g.Nodes()-1) + 1
			first, count := g.CoveredLeaves(n, k)
			lam := g.LeafLevelFor(LevelOf(n), k)
			if LevelOf(first) != lam {
				return false
			}
			// Slots within the level; a word holds eight of them.
			s1 := first - FirstOfLevel(lam)
			s2 := s1 + uint64(count) - 1
			return s1>>3 == s2>>3 && s2&7 == s1&7+uint64(count)-1
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// Property: covered-leaf ranges of a node and its sibling are disjoint and
// together exactly cover their parent's range (when in the same bunch) —
// the derivation rule of paper Figure 6.
func TestQuickCoveredLeavesSiblingPartition(t *testing.T) {
	g := MustNew(1<<16, 8, 1<<16)
	f := func(raw uint64) bool {
		n := raw%(g.Nodes()/2-1) + 1 // non-leaf node
		l, r := Left(n), Right(n)
		if g.LeafLevelFor(LevelOf(l), BunchSpan) != g.LeafLevelFor(LevelOf(n), BunchSpan) {
			return true // children start a new bunch; derivation crosses words
		}
		fl, cl := g.CoveredLeaves(l, BunchSpan)
		fr, cr := g.CoveredLeaves(r, BunchSpan)
		fn, cn := g.CoveredLeaves(n, BunchSpan)
		return fl == fn && fr == fl+uint64(cl) && cl+cr == cn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
