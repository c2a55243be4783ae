package geometry

// Bunch layout of the non-blocking leaf (paper §III.D), parameterized by
// the bunch height k: the number of consecutive tree levels one bunch
// covers.
//
// Tree levels are partitioned into groups of (at most) k consecutive
// levels called bunches. Only the deepest level of each bunch — the
// "bunch leaves" — is materialized in memory, one status byte per bunch
// leaf and eight per 64-bit word (the paper's 5-bit fields, widened to
// byte lanes for the SWAR level scan — see internal/status). A bunch has
// 2^(k-1) leaves, so a word holds 8/2^(k-1) whole bunches. The state of a
// bunch's interior nodes is derived from its leaves (partial occupancy =
// OR of children occupancy, full occupancy = AND of children occupancy),
// so one CAS on a word covers k tree levels. k = 4 is the paper's
// 4-levels layout, one bunch per word and the largest height byte lanes
// allow; k = 1 materializes every level and derives nothing, the 1-level
// layout.
//
// We align bunch-leaf levels from the BOTTOM of the tree (Depth, Depth-k,
// Depth-2k, ...), so the tree leaves — the nodes touched by minimum-size
// allocations, by far the most frequent — are always bunch leaves. The
// topmost bunch may therefore be partial (fewer than k levels); when
// Depth%k == 0 it degenerates to the root alone, whose "bunch" has a
// single leaf: itself.

// BunchSpan is the paper's bunch height: four levels, whose eight bunch
// leaves fill one word.
const BunchSpan = 4

// LeafLevelFor returns Λ(level): the bunch-leaf level that materializes the
// state of a node at the given level under bunch height k. It is the
// smallest materialized level ≥ level; materialized levels are congruent
// to Depth modulo k.
func (g Geometry) LeafLevelFor(level, k int) int {
	return g.Depth - (g.Depth-level)/k*k
}

// CoveredLeaves returns the contiguous run of bunch-leaf nodes that carry
// the state of node n under bunch height k: the descendants of n at
// LeafLevelFor(level(n), k). first is the index of the leftmost covered
// leaf and count ∈ {1, 2, ..., 2^(k-1)}. The run is always contained in a
// single word.
func (g Geometry) CoveredLeaves(n uint64, k int) (first uint64, count int) {
	shift := uint(g.LeafLevelFor(LevelOf(n), k) - LevelOf(n))
	return n << shift, 1 << shift
}

// WordsAtLevel returns how many words a materialized level needs.
func WordsAtLevel(level int) uint64 {
	w := LevelWidth(level)
	return (w + 7) >> 3
}

// LeafLevels returns the levels materialized under bunch height k, from
// deepest to shallowest.
func (g Geometry) LeafLevels(k int) []int {
	var levels []int
	for l := g.Depth; l >= 0; l -= k {
		levels = append(levels, l)
	}
	return levels
}

// Words returns the length of the word array of the whole tree under bunch
// height k. At k = 1 the three levels narrower than a word (the root and
// levels 1-2) take one word each.
func (g Geometry) Words(k int) uint64 {
	var words uint64
	for _, l := range g.LeafLevels(k) {
		words += WordsAtLevel(l)
	}
	return words
}

// Climb returns the explicit climb steps (one RMW each) of a minimum-size
// allocation under bunch height k: the materialized levels above the tree
// leaves, down to the one covering MaxLevel.
func (g Geometry) Climb(k int) int {
	return (g.Depth - g.LeafLevelFor(g.MaxLevel, k)) / k
}
