package main

import "math/bits"

// tapeLen is the number of entries of one worker's op tape; the timed
// loops replay it cyclically (index & tapeMask).
const (
	tapeLen  = 1 << 20
	tapeMask = tapeLen - 1
)

// splitmix is the tape generator's PRNG. The benchmark owns it so tapes
// are byte-identical for a seed on every Go release; the timed loops
// contain no RNG at all (a rand.Intn costs as much as a magazine hit).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// below returns a value uniform in [0, n) (multiply-shift, no modulo bias
// worth speaking of at 64 bits).
func (s *splitmix) below(n uint64) uint64 {
	hi, _ := bits.Mul64(s.next(), n)
	return hi
}

// workerRNG derives worker w's private stream from the run seed.
func workerRNG(seed uint64, w int) splitmix {
	s := splitmix(seed*0xD1342543DE82EF95 + uint64(w)*0x2545F4914F6CDD1D)
	s.next()
	return s
}

// A tape entry packs the request size (high half) and the slot index (low
// half) of one loop iteration, so replaying costs one sequential load.
type tape []uint64

func entry(size, slot uint64) uint64 { return size<<32 | slot }
func (t tape) size(i uint64) uint64  { return t[i&tapeMask] >> 32 }
func (t tape) slot(i uint64) uint64  { return t[i&tapeMask] & 0xFFFFFFFF }

// logUniform draws the small-object size mix: an octave uniform in
// [2^3, 2^10), then a size uniform inside it — 8 B to 1 KiB - 1,
// dominated by small requests with a poor power-of-two fit.
func logUniform(r *splitmix) uint64 {
	e := 3 + r.below(7)
	return uint64(1)<<e + r.below(uint64(1)<<e)
}

// genTape builds worker w's tape: slots uniform in [0, nslots), sizes from
// sizeOf (nil leaves the size half zero, for workloads whose slots carry a
// fixed class).
func genTape(seed uint64, w int, nslots uint64, sizeOf func(*splitmix) uint64) tape {
	r := workerRNG(seed, w)
	t := make(tape, tapeLen)
	for i := range t {
		var size uint64
		if sizeOf != nil {
			size = sizeOf(&r)
		}
		t[i] = entry(size, r.below(nslots))
	}
	return t
}
