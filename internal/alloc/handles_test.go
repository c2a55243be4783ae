package alloc

import (
	"sync"
	"testing"
)

type regHandle struct{ s Stats }

func (h *regHandle) Stats() *Stats { return &h.s }

func TestHandleRegistryRemoveFoldsOnce(t *testing.T) {
	var r Registry[*regHandle]
	h := &regHandle{s: Stats{Allocs: 3, Frees: 2}}
	r.Add(h)
	folds := 0
	if !r.Remove(h, func() { folds++ }) {
		t.Fatal("first Remove reported the handle unregistered")
	}
	if r.Remove(h, func() { folds++ }) {
		t.Fatal("second Remove reported the handle registered")
	}
	if folds != 1 {
		t.Fatalf("layer fold ran %d times, want 1", folds)
	}
	if got := r.Stats(); got != (Stats{Allocs: 3, Frees: 2}) {
		t.Fatalf("Stats after a double Remove = %+v, want the handle's counters once", got)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after Remove", r.Len())
	}
}

func TestHandleRegistryStatsIsLivePlusClosed(t *testing.T) {
	var r Registry[*regHandle]
	hs := []*regHandle{
		{s: Stats{Allocs: 1, RMW: 10}},
		{s: Stats{Allocs: 2, Frees: 1, CASFail: 4}},
		{s: Stats{Frees: 5, AllocFails: 7}},
	}
	var want Stats
	for _, h := range hs {
		r.Add(h)
		want.Add(h.s)
	}
	r.Remove(hs[1], nil)
	if got := r.Stats(); got != want {
		t.Fatalf("Stats = %+v, want live plus closed %+v", got, want)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	// A closed handle's later counters are not seen: its contribution was
	// retained at Remove.
	hs[1].s.Allocs += 100
	if got := r.Stats(); got != want {
		t.Fatalf("Stats after mutating a closed handle = %+v, want %+v", got, want)
	}
}

// TestHandleRegistryConcurrent races registration, unregistration, the
// quiescent-style reads and the convenience pool (run it under -race).
// Each worker sets its handle's counters before registering it, so Stats
// only ever reads counters nobody is writing.
func TestHandleRegistryConcurrent(t *testing.T) {
	var r Registry[*regHandle]
	var p ConvPool[*regHandle]
	p.New = func() *regHandle {
		h := &regHandle{}
		r.Add(h)
		return h
	}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := &regHandle{s: Stats{Allocs: 1, Frees: 1}}
				r.Add(h)
				_ = r.Stats()
				_ = r.Len()
				r.Walk(func(live []*regHandle) { _ = len(live) })
				p.Return(p.Borrow())
				r.Remove(h, nil)
			}
		}()
	}
	wg.Wait()
	got := r.Stats()
	if got.Allocs != workers*rounds || got.Frees != workers*rounds {
		t.Fatalf("Stats = %+v, want %d allocs and frees", got, workers*rounds)
	}
	if n := r.Len(); n > workers {
		t.Fatalf("%d convenience handles registered by %d concurrent borrowers", n, workers)
	}
}
