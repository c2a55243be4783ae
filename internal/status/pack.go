package status

import (
	"math/bits"
	"sync/atomic"
)

// Word packing of the non-blocking leaf (internal/bunch): one status byte
// per materialized node, eight per 64-bit atomic word. The five status
// bits of a node occupy the low bits of its byte (lane); the upper three
// bits of every lane stay zero. The byte-per-node layout (rather than the
// paper's §III.D 5-bit fields) trades 37% of the footprint for lanes
// that sit on natural byte boundaries, which is what makes the SWAR
// level scan below possible: one atomic 64-bit load yields eight node
// statuses, and classic free-byte bit tricks locate the first free
// candidate without per-node loads.

// FieldBits is the width of one packed status field (lane).
const FieldBits = 8

// LanesPerWord is how many node statuses one 64-bit word carries.
const LanesPerWord = 64 / FieldBits

// Lane-broadcast constants: the usual SWAR companions with one bit (or
// one byte value) repeated in every lane.
const (
	laneLSB  uint64 = 0x0101010101010101 // low bit of every lane
	laneMSB  uint64 = 0x8080808080808080 // high bit of every lane
	lane7F   uint64 = 0x7F7F7F7F7F7F7F7F
	busyAll  uint64 = uint64(Busy) * laneLSB // Busy mask in every lane
	coalAll  uint64 = uint64(CoalLeft|CoalRight) * laneLSB
	statMask uint64 = uint64(Mask) * laneLSB
)

// ShiftToLane positions a single-node status value (or mask) in lane j
// of a packed word — the building block for word-level atomic Or/And:
// setting a branch's coalescing bit is Or(ShiftToLane(CoalBit(c), j)),
// clearing a node outright is And(^ShiftToLane(Mask, j)).
func ShiftToLane(val uint32, j int) uint64 {
	return uint64(val&Mask) << (FieldBits * j)
}

// Field extracts the status of lane j from a packed word.
func Field(word uint64, j int) uint32 {
	return uint32(word>>(FieldBits*j)) & Mask
}

// WithField returns word with lane j replaced by val.
func WithField(word uint64, j int, val uint32) uint64 {
	shift := FieldBits * j
	return word&^(uint64(Mask)<<shift) | uint64(val&Mask)<<shift
}

// FieldMask returns the mask covering count consecutive lanes starting at
// lane j.
func FieldMask(j, count int) uint64 {
	return Fill(j, count, Mask)
}

// Fill returns count consecutive copies of val starting at lane j.
func Fill(j, count int, val uint32) uint64 {
	// count consecutive set bytes, starting at byte j.
	run := laneLSB >> (64 - FieldBits*count) << (FieldBits * j)
	return run * uint64(val&Mask)
}

// AnyBusy reports whether any of the count lanes starting at j has a Busy
// bit set, i.e. whether the covered node is not free.
func AnyBusy(word uint64, j, count int) bool {
	return word&Fill(j, count, Busy) != 0
}

// busyLanes returns the lane-occupancy bitmap of a word: the high bit of
// lane j is set iff lane j has at least one Busy bit. Masking with Busy
// leaves every lane ≤ 0x13 < 0x80, so adding 0x7F per lane carries into
// the lane's high bit exactly when the lane is non-zero and never across
// lanes — the bitmap is exact, with no borrow artifacts.
func busyLanes(word uint64) uint64 {
	m := word & busyAll
	return ((m + lane7F) | m) & laneMSB
}

// alignedMSB[k] holds the high bits of the lanes that can start an
// aligned run of 1<<k lanes: every lane for runs of 1, lanes 0/2/4/6
// for pairs, lanes 0/4 for quads, lane 0 for a whole-word run.
var alignedMSB = [4]uint64{laneMSB, pairMSB, quadMSB, 0x80}

const (
	pairMSB uint64 = 0x0080008000800080
	quadMSB uint64 = 0x0000008000000080
)

// FirstFreeRun is the word-level form of the NBALLOC level probe for
// nodes covering count consecutive lanes (count 1 at materialized levels,
// more for interior nodes of a bunch): it returns the lowest
// count-aligned lane index f in [from, LanesPerWord) such that lanes
// [f, f+count) are all Busy-free (pending coalescing bits do not
// disqualify a lane, matching IsFree), or LanesPerWord when no such run
// remains. from must itself be count-aligned and count a power of two
// (the bunch layout guarantees both). The exact busy-lane bitmap is
// folded so each run start accumulates its whole run's occupancy, then
// the first clear aligned position is picked.
func FirstFreeRun(word uint64, from, count int) int {
	b := busyLanes(word)
	for s := 1; s < count; s <<= 1 {
		b |= b >> (FieldBits * s)
	}
	// Candidate positions: high bits of count-aligned lanes at or after
	// from.
	cand := alignedMSB[bits.TrailingZeros8(uint8(count))] &^ (1<<(FieldBits*from) - 1)
	z := cand &^ b
	return bits.TrailingZeros64(z) / FieldBits
}

// NextRun continues a level scan over whole words: words[off+lane>>3] is
// the word holding lane, and nodes cover 1<<shift lanes. Starting at the
// word-aligned lane, it returns the first lane before end whose
// count-aligned run FirstFreeRun(w, 0, 1<<shift) would name, word by
// word, together with the word w it was read from. shift is at most 3
// (a node never covers more than one word). When no word in
// [lane, end) has a candidate it returns the first word boundary at or
// past end; a candidate found in the last word may also lie at or past
// end, exactly as the word-by-word probe would name it, so callers test
// the returned lane against end.
//
// Each node width gets its own loop with the probe reduced to constants
// (at two nodes per word and at one, each half-word or the whole word is
// tested against the Busy mask, with no busy-lane bitmap at all), and
// every loop steps by one word whatever the probe found, so the next
// load is independent of the current word's test. That is what makes a
// failing scan cost a load and a compare per word.
func NextRun(words []atomic.Uint64, off, lane, end uint64, shift uint) (uint64, uint64) {
	if lane >= end {
		return lane, 0
	}
	ws := words[off+lane>>3 : off+(end+LanesPerWord-1)>>3]
	switch shift {
	case 0:
		for i := range ws {
			w := ws[i].Load()
			if b := busyLanes(w); b != laneMSB {
				return lane + uint64(i)*LanesPerWord + uint64(bits.TrailingZeros64(laneMSB&^b)/FieldBits), w
			}
		}
	case 1:
		for i := range ws {
			w := ws[i].Load()
			b := busyLanes(w)
			if z := pairMSB &^ (b | b>>FieldBits); z != 0 {
				return lane + uint64(i)*LanesPerWord + uint64(bits.TrailingZeros64(z)/FieldBits), w
			}
		}
	case 2:
		for i := range ws {
			w := ws[i].Load()
			m := w & busyAll
			if uint32(m) == 0 {
				return lane + uint64(i)*LanesPerWord, w
			}
			if m>>32 == 0 {
				return lane + uint64(i)*LanesPerWord + LanesPerWord/2, w
			}
		}
	default:
		for i := range ws {
			if w := ws[i].Load(); w&busyAll == 0 {
				return lane + uint64(i)*LanesPerWord, w
			}
		}
	}
	return lane + uint64(len(ws))*LanesPerWord, 0
}
