package bunch

import (
	"repro/internal/geometry"
	"repro/internal/status"
)

// Scrub rebuilds the words from the set of live allocations recorded in
// index[]. It exists because the non-blocking release path is allowed to
// stop propagating early when it races with concurrent operations
// (Algorithm 4 returns on a cleared coalescing bit or an occupied buddy),
// which can strand conservative occupied/coalescing markings on nodes
// whose subtrees are in fact free. Such residue never violates safety —
// the stale bits only ever claim MORE occupancy than real — but it can
// make high-level allocations fail on a lightly loaded instance until
// later operations re-clean the path.
//
// Scrub must only be called while no other operation is in flight (a
// maintenance point); it is not part of the paper's algorithm and the
// benchmarks never use it.
func (a *Allocator) Scrub() {
	// Collect the live nodes first: index[] holds the serving node at the
	// head unit of each delivered chunk.
	var live []uint64
	for slot := range a.index {
		if n := a.index[slot].Load(); n != 0 {
			live = append(live, uint64(n))
		}
	}
	for w := range a.words {
		a.words[w].Store(0)
	}
	for _, n := range live {
		nLevel := geometry.LevelOf(n)
		word, field, count, leafLevel := a.nodeWord(n)
		word.Store(word.Load() | status.Fill(field, count, status.Busy))
		for lam := leafLevel - a.k; lam >= a.top; lam -= a.k {
			anc := geometry.AncestorAt(n, nLevel, lam)
			child := geometry.AncestorAt(n, nLevel, lam+1)
			w, f := a.wordOf(anc, lam)
			w.Store(status.WithField(w.Load(), f, status.Mark(status.Field(w.Load(), f), child)))
		}
	}
}

// LiveNodes returns the number of currently delivered chunks (quiescent
// diagnostic).
func (a *Allocator) LiveNodes() int {
	live := 0
	for slot := range a.index {
		if a.index[slot].Load() != 0 {
			live++
		}
	}
	return live
}
