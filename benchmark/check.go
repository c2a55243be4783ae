package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/verify"
)

// checkedHandle runs every operation past internal/verify's claim
// checker: an alloc claims the chunk's reserved window (any unit already
// claimed is an S1 overlap), a free releases it first (any unit not
// claimed is an S2 unbalanced free). It is verify.Handle plus the batch
// face, which the elastic workload's ramps need. The reserved and
// requested byte sums give reserved_per_requested.
type checkedHandle struct {
	inner               alloc.Handle
	chk                 *verify.Checker
	sizeOf              func(uint64) uint64
	reserved, requested uint64
}

func (h *checkedHandle) Stats() *alloc.Stats { return h.inner.Stats() }

func (h *checkedHandle) claim(off, size uint64) {
	r := h.sizeOf(off)
	h.chk.Claim(off, r)
	h.reserved += r
	h.requested += size
}

func (h *checkedHandle) Alloc(size uint64) (uint64, bool) {
	off, ok := h.inner.Alloc(size)
	if ok {
		h.claim(off, size)
	}
	return off, ok
}

func (h *checkedHandle) Free(off uint64) {
	h.chk.Release(off, h.sizeOf(off))
	h.inner.Free(off)
}

func (h *checkedHandle) AllocBatch(size uint64, n int) []uint64 {
	offs := alloc.HandleAllocBatch(h.inner, size, n)
	for _, off := range offs {
		h.claim(off, size)
	}
	return offs
}

func (h *checkedHandle) FreeBatch(offs []uint64) {
	for _, off := range offs {
		h.chk.Release(off, h.sizeOf(off))
	}
	alloc.HandleFreeBatch(h.inner, offs)
}

func (h *checkedHandle) Close() { alloc.CloseHandle(h.inner) }

// checkResult is the outcome of one workload's checked pass.
type checkResult struct {
	reservedPerRequested float64
	attempted, failed    uint64
}

// checkedPass replays the workload's tapes for a fixed budget on a fresh
// nbbs.New stack with every handle checked, then drains and verifies the
// stack returned to empty. The budget is a count, not a time, so at one
// worker every figure it yields repeats exactly for a seed.
func checkedPass(wl workload, T int, seed uint64) (checkResult, error) {
	var chk *verify.Checker
	e, err := setUp(wl, T, seed, untracedStack, func(st stackUnderTest, h alloc.Handle) alloc.Handle {
		if chk == nil {
			// The elastic stack may grow to MaxInstances windows.
			span := st.Total()
			if mgr := st.Elastic(); mgr != nil {
				span = uint64(mgr.Config().MaxInstances) * mgr.Router().InstanceSpan()
			}
			chk = verify.NewChecker(span, wl.spec().minSize)
		}
		return &checkedHandle{inner: h, chk: chk, sizeOf: st.ChunkSize}
	})
	if err != nil {
		return checkResult{}, err
	}
	_, budget := wl.budgets()
	res := e.measure(e.workers, 0, budget)
	var out checkResult
	var reserved, requested uint64
	for _, w := range e.workers {
		h := w.h.(*checkedHandle)
		reserved += h.reserved
		requested += h.requested
	}
	out.reservedPerRequested = float64(reserved) / float64(requested)
	out.attempted, out.failed = res.ops+res.fails, res.fails
	if err := e.tearDown(); err != nil {
		return out, err
	}
	if err := chk.Quiesced(); err != nil {
		return out, fmt.Errorf("%s: %w", wl.name(), err)
	}
	return out, nil
}

// verifyEmpty checks a drained stack: after Scrub every layer's allocs
// and frees reconcile, and the whole active span is allocatable again as
// MaxSize chunks.
func verifyEmpty(st stackUnderTest) error {
	activeSpan := st.Total()
	if mgr := st.Elastic(); mgr != nil {
		// Let pending drains retire; what stays active must be whole.
		for i := 0; i < 4; i++ {
			mgr.Poll()
		}
		activeSpan = uint64(mgr.Router().ActiveInstances()) * mgr.Router().InstanceSpan()
	}
	st.Scrub()
	for _, ls := range st.LayerStats() {
		if ls.Stats.Allocs != ls.Stats.Frees {
			return fmt.Errorf("%s: layer %q did not reconcile at quiescence: %d allocs, %d frees",
				st.Name(), ls.Layer, ls.Stats.Allocs, ls.Stats.Frees)
		}
	}
	h := st.NewHandle()
	want := int(activeSpan / st.MaxSize())
	got := alloc.HandleAllocBatch(h, st.MaxSize(), want)
	alloc.HandleFreeBatch(h, got)
	alloc.CloseHandle(h)
	if len(got) != want {
		return fmt.Errorf("%s: after drain and Scrub only %d of %d MaxSize chunks are allocatable",
			st.Name(), len(got), want)
	}
	return nil
}
