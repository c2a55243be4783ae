// Package status implements the 5-bit per-node state of the non-blocking
// buddy system (paper §III.A, Figure 1) and the manipulation functions the
// algorithms are written in terms of. Through the word packing in pack.go
// the same bit algebra serves every bunch height of internal/bunch, under
// either synchronization discipline.
//
// Bit layout (low to high): occupied-right, occupied-left, coalescent-right,
// coalescent-left, occupied.
package status

// Status bit masks, exactly as listed in paper §III.A.
const (
	OccRight  uint32 = 0x1  // right subtree totally or partially occupied
	OccLeft   uint32 = 0x2  // left subtree totally or partially occupied
	CoalRight uint32 = 0x4  // release in progress in the right subtree
	CoalLeft  uint32 = 0x8  // release in progress in the left subtree
	Occ       uint32 = 0x10 // this very node reserved by an allocation
	Busy      uint32 = Occ | OccLeft | OccRight
	Mask      uint32 = 0x1F // all five status bits
)

// The manipulation helpers below take the index of the child from which a
// climb reached the node whose status is val. mod2 of the child index
// distinguishes the branch: with the root at index 1, left children have
// even indexes (mod2 == 0) and right children odd (mod2 == 1), so shifting
// the LEFT mask right by mod2(child) selects the child's branch and
// shifting the RIGHT mask left by mod2(child) selects the buddy's branch.

func mod2(child uint64) uint32 { return uint32(child & 1) }

// CleanCoal clears the coalescing bit of the child's branch.
func CleanCoal(val uint32, child uint64) uint32 {
	return val &^ (CoalLeft >> mod2(child))
}

// Mark sets the occupancy bit of the child's branch.
func Mark(val uint32, child uint64) uint32 {
	return val | (OccLeft >> mod2(child))
}

// CoalBit returns the coalescing mask of the child's branch (used to OR it
// in during the first phase of FreeNode).
func CoalBit(child uint64) uint32 { return CoalLeft >> mod2(child) }

// IsOccBuddy reports whether the occupancy bit of the buddy of child is set.
func IsOccBuddy(val uint32, child uint64) bool {
	return val&(OccRight<<mod2(child)) != 0
}

// IsCoalBuddy reports whether the coalescing bit of the buddy of child is
// set.
func IsCoalBuddy(val uint32, child uint64) bool {
	return val&(CoalRight<<mod2(child)) != 0
}

// IsFree reports whether a node is currently free: neither reserved itself
// nor carrying (partially) occupied subtrees. Pending coalescing bits do
// not make a node busy.
func IsFree(val uint32) bool { return val&Busy == 0 }

// IsOcc reports whether the node itself has been reserved by an allocation.
func IsOcc(val uint32) bool { return val&Occ != 0 }

// String renders a status value for debugging, e.g. "OCC|OL" for 0x12.
func String(val uint32) string {
	if val&Mask == 0 {
		return "free"
	}
	s := ""
	add := func(bit uint32, name string) {
		if val&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(Occ, "OCC")
	add(OccLeft, "OL")
	add(OccRight, "OR")
	add(CoalLeft, "CL")
	add(CoalRight, "CR")
	return s
}
