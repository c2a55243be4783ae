package status

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestFieldRoundtrip(t *testing.T) {
	var w uint64
	for j := 0; j < 8; j++ {
		w = WithField(w, j, uint32(j)+1)
	}
	for j := 0; j < 8; j++ {
		if got := Field(w, j); got != uint32(j)+1 {
			t.Fatalf("Field(%d) = %#x, want %#x", j, got, j+1)
		}
	}
	// One byte per lane: the upper three bits of every byte stay clear.
	if w&^statMask != 0 {
		t.Fatalf("packing leaked outside the status bits: %#x", w)
	}
}

func TestFieldMaskAndFill(t *testing.T) {
	if FieldMask(0, 8) != statMask {
		t.Fatalf("FieldMask(0,8) = %#x", FieldMask(0, 8))
	}
	if Fill(2, 2, Busy) != uint64(Busy)<<16|uint64(Busy)<<24 {
		t.Fatalf("Fill(2,2,Busy) = %#x", Fill(2, 2, Busy))
	}
}

func TestAnyBusy(t *testing.T) {
	w := WithField(0, 3, CoalLeft) // coalescing only: not busy
	if AnyBusy(w, 0, 8) {
		t.Error("coal-only field reported busy")
	}
	w = WithField(w, 5, Occ)
	if !AnyBusy(w, 4, 4) {
		t.Error("busy field in range not detected")
	}
	if AnyBusy(w, 0, 4) {
		t.Error("busy field outside range detected")
	}
}

// Property: WithField changes exactly the targeted field.
func TestQuickWithFieldIsolation(t *testing.T) {
	f := func(w uint64, j uint8, val uint32) bool {
		w &= statMask
		jj := int(j % 8)
		out := WithField(w, jj, val)
		if Field(out, jj) != val&Mask {
			return false
		}
		for k := 0; k < 8; k++ {
			if k != jj && Field(out, k) != Field(w, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AnyBusy(w, j, c) is exactly the OR of per-field busy tests.
func TestQuickAnyBusyDefinition(t *testing.T) {
	f := func(w uint64, j, c uint8) bool {
		w &= statMask
		jj := int(j % 8)
		cc := int(c%8) + 1
		if jj+cc > 8 {
			cc = 8 - jj
		}
		want := false
		for k := jj; k < jj+cc; k++ {
			if Field(w, k)&Busy != 0 {
				want = true
			}
		}
		return AnyBusy(w, jj, cc) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFirstFreeRun(t *testing.T) {
	cases := []struct {
		w           uint64
		from, count int
		want        int
	}{
		{0, 0, 1, 0},
		{0, 5, 1, 5},
		{0, 8, 1, 8},
		{Fill(0, 8, Busy), 0, 1, 8},
		{Fill(0, 3, Busy), 0, 1, 3},
		{Fill(0, 3, Busy), 4, 1, 4},
		{WithField(0, 0, Occ), 0, 1, 1},
		// Coalescing-only lanes count as free, exactly like IsFree.
		{Fill(0, 8, CoalLeft), 0, 1, 0},
		{WithField(Fill(0, 8, Busy), 6, CoalRight), 0, 1, 6},
		// Runs: one busy lane disqualifies its whole aligned run.
		{WithField(0, 1, OccLeft), 0, 2, 2},
		{WithField(0, 3, Occ), 0, 4, 4},
		{WithField(0, 7, Occ), 0, 8, 8},
	}
	for _, c := range cases {
		if got := FirstFreeRun(c.w, c.from, c.count); got != c.want {
			t.Errorf("FirstFreeRun(%#x, %d, %d) = %d, want %d", c.w, c.from, c.count, got, c.want)
		}
	}
}

// firstFreeRunRef is the per-lane reference for FirstFreeRun: it tests
// every lane of every count-aligned run on its own, with no SWAR.
func firstFreeRunRef(w uint64, from, count int) int {
	for f := from; f < LanesPerWord; f += count {
		free := true
		for j := f; j < f+count; j++ {
			free = free && Field(w, j)&Busy == 0
		}
		if free {
			return f
		}
	}
	return LanesPerWord
}

func TestQuickFirstFreeRun(t *testing.T) {
	f := func(w uint64, from, countSel uint8) bool {
		w &= statMask
		count := 1 << (countSel % 4) // 1, 2, 4, 8
		ff := (int(from) % (LanesPerWord/count + 1)) * count
		return FirstFreeRun(w, ff, count) == firstFreeRunRef(w, ff, count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzFirstFreeRun checks FirstFreeRun against the per-lane reference for
// every run width and every aligned start on arbitrary words, including
// bits outside the status mask, which the scan must ignore. Run it with
// go test -run '^$' -fuzz '^FuzzFirstFreeRun$' ./internal/status.
func FuzzFirstFreeRun(f *testing.F) {
	for _, w := range []uint64{
		0,
		^uint64(0),
		statMask,
		Fill(0, 8, Busy),
		Fill(0, 8, CoalLeft|CoalRight),
		WithField(0, 7, Occ),
		WithField(Fill(0, 8, Busy), 0, CoalRight),
		Fill(1, 3, OccRight) | Fill(5, 2, OccLeft),
		laneMSB | 0x6060606060606060, // only the bits above the status mask
	} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w uint64) {
		for count := 1; count <= LanesPerWord; count <<= 1 {
			for from := 0; from <= LanesPerWord; from += count {
				if got, want := FirstFreeRun(w, from, count), firstFreeRunRef(w, from, count); got != want {
					t.Fatalf("FirstFreeRun(%#x, %d, %d) = %d, want %d", w, from, count, got, want)
				}
			}
		}
	})
}

// nextRunRef is the word-by-word reference for NextRun: firstFreeRunRef
// applied to each word of [lane, end) in turn, from lane 0 of each.
func nextRunRef(words []uint64, lane, end uint64, shift uint) uint64 {
	for ; lane < end; lane += LanesPerWord {
		if f := firstFreeRunRef(words[lane/LanesPerWord], 0, 1<<shift); f < LanesPerWord {
			return lane + uint64(f)
		}
	}
	return lane
}

// checkNextRun compares NextRun with nextRunRef for every node width,
// every word-aligned start and every end (mid-word ones included) over
// the given words. The words sit between two all-free guard words, so a
// walk that reads past its range finds a candidate the reference does
// not.
func checkNextRun(t *testing.T, ws []uint64) {
	t.Helper()
	words := make([]atomic.Uint64, len(ws)+2)
	for i, w := range ws {
		words[i+1].Store(w)
	}
	const off = 1
	lanes := uint64(len(ws)) * LanesPerWord
	for shift := uint(0); shift <= 3; shift++ {
		for lane := uint64(0); lane <= lanes; lane += LanesPerWord {
			for end := lane; end <= lanes; end++ {
				got, w := NextRun(words, off, lane, end, shift)
				want := nextRunRef(ws, lane, end, shift)
				if got != want {
					t.Fatalf("NextRun(%#x, lane %d, end %d, shift %d) = lane %d, want %d", ws, lane, end, shift, got, want)
				}
				if got < end && w != ws[got/LanesPerWord] {
					t.Fatalf("NextRun(%#x, lane %d, end %d, shift %d) = word %#x, want the word of lane %d", ws, lane, end, shift, w, got)
				}
			}
		}
	}
}

// TestQuickNextRun checks the walker on random 1-4 word levels, thinned
// by a random number of extra ANDs so that every node width meets both
// free and busy runs.
func TestQuickNextRun(t *testing.T) {
	f := func(a, b, c [4]uint64, n, thin uint8) bool {
		ws := make([]uint64, int(n%4)+1)
		for i := range ws {
			ws[i] = a[i]
			if thin%3 > 0 {
				ws[i] &= b[i]
			}
			if thin%3 > 1 {
				ws[i] &= c[i]
			}
		}
		checkNextRun(t, ws)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzNextRun checks NextRun against firstFreeRunRef applied word by
// word, on one to four arbitrary words (bits outside the status mask
// included), for every node width, every word-aligned start and every
// end. Run it with go test -run '^$' -fuzz '^FuzzNextRun$'
// ./internal/status.
func FuzzNextRun(f *testing.F) {
	busy := Fill(0, 8, Busy)
	for _, s := range [][5]uint64{
		{1, 0, 0, 0, 0},
		{4, busy, busy, busy, busy},
		{4, busy, busy, busy, 0},
		{3, ^uint64(0), statMask, WithField(busy, 7, CoalLeft), 0},
		{2, WithField(busy, 3, 0), WithField(busy, 6, CoalRight), 0, 0},
		{4, busy &^ Fill(4, 2, Mask), busy &^ Fill(2, 2, Mask), busy &^ Fill(0, 4, Mask), busy &^ Fill(1, 1, Mask)},
		{2, laneMSB | 0x6060606060606060, busy | laneMSB, 0, 0}, // only the bits above the status mask
	} {
		f.Add(uint8(s[0]), s[1], s[2], s[3], s[4])
	}
	f.Fuzz(func(t *testing.T, n uint8, w0, w1, w2, w3 uint64) {
		checkNextRun(t, []uint64{w0, w1, w2, w3}[:int(n%4)+1])
	})
}
