// Package geometry implements the tree geometry of an array-embedded buddy
// system: level arithmetic, the index/size/address correspondence of paper
// equations (1)-(3), and the bunch-leaf layout of the non-blocking leaf
// at bunch height k (paper §III.D at k = 4).
//
// Conventions (matching the paper): the tree is a static complete binary
// tree stored in an array with the root at index 1; the left child of node
// n is 2n and the right child is 2n+1. The root is level 0 and levels grow
// downward, so the tree leaves (allocation units) live at level Depth.
package geometry

import (
	"fmt"
	"math/bits"
)

// Geometry describes one buddy-system instance: the managed region size and
// the derived tree shape. All sizes are powers of two.
type Geometry struct {
	// Total is the number of bytes managed by the instance.
	Total uint64
	// MinSize is the allocation unit: the size of a tree leaf. Requests
	// smaller than MinSize are rounded up to it.
	MinSize uint64
	// MaxSize is the largest size servable by a single allocation.
	MaxSize uint64
	// Depth is the level of the leaves: Total/2^Depth == MinSize.
	Depth int
	// MaxLevel is the shallowest level that allocations may target:
	// Total/2^MaxLevel == MaxSize. It is the destination of every climb.
	MaxLevel int
}

// New validates the configuration and derives the tree shape.
func New(total, minSize, maxSize uint64) (Geometry, error) {
	switch {
	case total == 0 || !isPow2(total):
		return Geometry{}, fmt.Errorf("geometry: total %d is not a positive power of two", total)
	case minSize == 0 || !isPow2(minSize):
		return Geometry{}, fmt.Errorf("geometry: min size %d is not a positive power of two", minSize)
	case maxSize == 0 || !isPow2(maxSize):
		return Geometry{}, fmt.Errorf("geometry: max size %d is not a positive power of two", maxSize)
	case minSize > total:
		return Geometry{}, fmt.Errorf("geometry: min size %d exceeds total %d", minSize, total)
	case maxSize > total:
		return Geometry{}, fmt.Errorf("geometry: max size %d exceeds total %d", maxSize, total)
	case maxSize < minSize:
		return Geometry{}, fmt.Errorf("geometry: max size %d below min size %d", maxSize, minSize)
	}
	g := Geometry{
		Total:    total,
		MinSize:  minSize,
		MaxSize:  maxSize,
		Depth:    log2(total) - log2(minSize),
		MaxLevel: log2(total) - log2(maxSize),
	}
	return g, nil
}

// MustNew is New for statically-known-good configurations.
func MustNew(total, minSize, maxSize uint64) Geometry {
	g, err := New(total, minSize, maxSize)
	if err != nil {
		panic(err)
	}
	return g
}

// Nodes returns the length of the tree array: 2^(Depth+1), of which
// indexes [1, 2^(Depth+1)-1] are valid nodes (index 0 is unused).
func (g Geometry) Nodes() uint64 { return 1 << (g.Depth + 1) }

// Leaves returns the number of allocation units (leaves), Total/MinSize.
func (g Geometry) Leaves() uint64 { return 1 << g.Depth }

// LevelOf returns the level of node n — paper equation (1):
// level(n) = floor(log2(n)).
func LevelOf(n uint64) int { return bits.Len64(n) - 1 }

// FirstOfLevel returns the index of the first node of a level.
func FirstOfLevel(level int) uint64 { return 1 << level }

// LevelWidth returns the number of nodes at a level.
func LevelWidth(level int) uint64 { return 1 << level }

// SizeOfLevel returns the chunk size managed by nodes of a level —
// paper equation (2): size(n) = Total / 2^level(n).
func (g Geometry) SizeOfLevel(level int) uint64 { return g.Total >> level }

// SizeOf returns the chunk size managed by node n.
func (g Geometry) SizeOf(n uint64) uint64 { return g.SizeOfLevel(LevelOf(n)) }

// OffsetOf returns the starting offset of node n's chunk relative to the
// base address — paper equation (3):
// starting(n) = base + (n - 2^level(n)) * size(n).
func (g Geometry) OffsetOf(n uint64) uint64 {
	level := LevelOf(n)
	return (n - FirstOfLevel(level)) * g.SizeOfLevel(level)
}

// NodeAt is the inverse of OffsetOf for a given level: it returns the node
// index whose chunk starts at offset within that level.
func (g Geometry) NodeAt(level int, offset uint64) uint64 {
	return FirstOfLevel(level) + offset/g.SizeOfLevel(level)
}

// LevelForSize maps a request size to the target level, rounding the
// request up to the next managed size: level = floor(log2(Total/size)),
// upper-bounded by Depth (paper line A5-A8). Sizes below MinSize round to
// the allocation unit; the caller must reject size > MaxSize beforehand.
func (g Geometry) LevelForSize(size uint64) int {
	if size <= g.MinSize {
		return g.Depth
	}
	level := log2(g.Total) - ceilLog2(size)
	if level > g.Depth {
		level = g.Depth
	}
	if level < g.MaxLevel {
		level = g.MaxLevel
	}
	return level
}

// Left and Right navigate the array-embedded tree.
func Left(n uint64) uint64  { return n << 1 }
func Right(n uint64) uint64 { return n<<1 | 1 }

// AncestorAt returns n's ancestor at the given (shallower or equal) level.
func AncestorAt(n uint64, fromLevel, toLevel int) uint64 {
	return n >> uint(fromLevel-toLevel)
}

func isPow2(v uint64) bool { return v&(v-1) == 0 }

func log2(v uint64) int { return bits.Len64(v) - 1 }

func ceilLog2(v uint64) int {
	l := log2(v)
	if v&(v-1) != 0 {
		l++
	}
	return l
}
