package status

import (
	"testing"
	"testing/quick"
)

func TestMaskValues(t *testing.T) {
	// The paper's §III.A lists the masks explicitly.
	if OccRight != 0x1 || OccLeft != 0x2 || CoalRight != 0x4 || CoalLeft != 0x8 || Occ != 0x10 {
		t.Fatal("status masks diverge from the paper")
	}
	if Busy != 0x13 {
		t.Fatalf("BUSY = %#x, want 0x13 (OCC|OCC_LEFT|OCC_RIGHT)", Busy)
	}
}

func TestBranchSelection(t *testing.T) {
	// Left children have even indexes: operations on an even child touch
	// the LEFT bits, odd children the RIGHT bits.
	if Mark(0, 4) != OccLeft {
		t.Errorf("Mark(0, even) = %#x, want OCC_LEFT", Mark(0, 4))
	}
	if Mark(0, 5) != OccRight {
		t.Errorf("Mark(0, odd) = %#x, want OCC_RIGHT", Mark(0, 5))
	}
	if CoalBit(6) != CoalLeft || CoalBit(7) != CoalRight {
		t.Error("CoalBit branch selection wrong")
	}
	if got := CleanCoal(CoalLeft|CoalRight, 2); got != CoalRight {
		t.Errorf("CleanCoal(CL|CR, even) = %#x, want CR only", got)
	}
}

func TestBuddyPredicates(t *testing.T) {
	// For an even (left) child, the buddy is the right branch.
	if !IsOccBuddy(OccRight, 4) || IsOccBuddy(OccLeft, 4) {
		t.Error("IsOccBuddy(even child) must look at the right branch")
	}
	if !IsOccBuddy(OccLeft, 5) || IsOccBuddy(OccRight, 5) {
		t.Error("IsOccBuddy(odd child) must look at the left branch")
	}
	if !IsCoalBuddy(CoalRight, 4) || !IsCoalBuddy(CoalLeft, 5) {
		t.Error("IsCoalBuddy branch selection wrong")
	}
}

func TestIsFree(t *testing.T) {
	if !IsFree(0) || !IsFree(CoalLeft) || !IsFree(CoalLeft|CoalRight) {
		t.Error("pending coalescing bits must not make a node busy")
	}
	for _, v := range []uint32{Occ, OccLeft, OccRight, Busy} {
		if IsFree(v) {
			t.Errorf("IsFree(%#x) = true", v)
		}
	}
}

func TestStatusString(t *testing.T) {
	if String(0) != "free" {
		t.Errorf("String(0) = %q", String(0))
	}
	if got := String(Occ | OccLeft); got != "OCC|OL" {
		t.Errorf("String(OCC|OL) = %q", got)
	}
}

// Property: CleanCoal only ever clears, Mark only ever sets, and the OCC
// bit is invariant under all branch operations.
func TestQuickMonotonicity(t *testing.T) {
	f := func(val uint32, child uint64) bool {
		val &= Mask
		cc := CleanCoal(val, child)
		mk := Mark(val, child)
		return cc&^val == 0 && // CleanCoal never sets bits
			mk&val == val && // Mark never clears bits
			cc&Occ == val&Occ && mk&Occ == val&Occ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
