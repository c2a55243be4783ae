package stack_test

import (
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/verify"
)

// tapeSource is a rand.Source that replays fuzzer bytes: each draw is the
// next two bytes of the tape (little-endian; the last byte alone when one
// is left) in both 32-bit halves, so rand.Intn(n) and Int63n(n) read that
// 16-bit value modulo n. Every n the walk asks for on FuzzStack's geometry
// is far below 65536 (the largest, 4096, is the live count of a full,
// grown elastic stack), so every choice is reachable, and a mutated byte
// changes exactly one choice of the walk. Past the end of the tape every
// draw is zero.
type tapeSource struct{ tape []byte }

func (s *tapeSource) Int63() int64 {
	var v int64
	for i := 0; i < 2 && len(s.tape) > 0; i++ {
		v |= int64(s.tape[0]) << (8 * i)
		s.tape = s.tape[1:]
	}
	return v<<32 | v
}

func (s *tapeSource) Seed(int64) {}

// FuzzStack drives verify.Oracle's walk, drain and reconcile over a
// registered stack, with every choice of the walk read from the fuzzer's
// tape: the bare leaves, the slab-over-depot router and the mapped
// elastic router.
func FuzzStack(f *testing.F) {
	labels := []string{"4lvl-nb", "1lvl-nb", "slab+depot+multi4+4lvl-nb", "mapped+elastic+multi+4lvl-nb"}
	for i := range labels {
		tape := make([]byte, 1024)
		rand.New(rand.NewSource(int64(i))).Read(tape)
		f.Add(uint8(i), tape)
	}
	f.Fuzz(func(t *testing.T, which uint8, tape []byte) {
		label := labels[int(which)%len(labels)]
		a, err := alloc.Build(label, alloc.Config{Total: 1 << 14, MinSize: 8, MaxSize: 1 << 11})
		if err != nil {
			t.Fatalf("Build(%q): %v", label, err)
		}
		o := verify.NewOracle(a, func(format string, args ...any) {
			t.Fatalf("%s: "+format, append([]any{label}, args...)...)
		})
		// A step draws at least two bytes, so the walk ends about where the
		// tape does; the cap keeps one run to about a millisecond.
		o.Walk(&tapeSource{tape}, min(len(tape)/2, 1024))
		o.Drain()
		o.Reconcile()
	})
}
