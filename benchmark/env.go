package main

import (
	"fmt"
	"runtime"

	nbbs "repro"
	"repro/internal/alloc"
)

// env is one set-up stack with its workers.
type env struct {
	wl      workload
	T       int
	seed    uint64
	st      stackUnderTest
	tr      *tracer // nil on untraced stacks
	wrap    handleWrap
	workers []*worker
	setupS  float64
}

// handleWrap lets the checked pass interpose on every handle the
// generator creates.
type handleWrap func(st stackUnderTest, h alloc.Handle) alloc.Handle

// stackBuilder builds a workload's stack; the tracer is nil for the
// nbbs.New stack.
type stackBuilder func(s stackSpec) (stackUnderTest, *tracer, error)

func untracedStack(s stackSpec) (stackUnderTest, *tracer, error) {
	b, err := nbbs.New(s.config())
	return b, nil, err
}

// tracedStack composes the same stack by hand with a span shim at every
// boundary. The leaf tracer stays installed while the stack lives, since
// an elastic grow builds new leaves mid-run; the caller clears it.
func tracedStack(s stackSpec) (stackUnderTest, *tracer, error) {
	top := layerBunch
	switch {
	case s.slab:
		top = layerSlab
	case s.depot:
		top = layerFrontend
	case s.instances >= 1:
		top = layerMulti
	}
	tr := newTracer(nanotime, top)
	leafTracer.Store(tr)
	c, err := compose(s, tracedLeaf, tr.wrap)
	if err != nil {
		leafTracer.Store(nil)
		return nil, nil, err
	}
	return c, tr, nil
}

func (e *env) newHandle() alloc.Handle {
	h := e.st.NewHandle()
	if e.wrap != nil {
		h = e.wrap(e.st, h)
	}
	return h
}

// committed is the memory the stack holds from the OS: the mapped
// region's committed bytes, or the whole span for unmapped stacks (their
// metadata covers the span from construction on).
func (e *env) committed() uint64 {
	if ms, ok := e.st.MemStats(); ok {
		return ms.CommittedBytes
	}
	return e.st.Total()
}

// setUp builds the stack, generates the tapes, and fills the working sets
// and warms the caches through the workload's own loop; its wall time is
// setup_s.
func setUp(wl workload, T int, seed uint64, build stackBuilder, wrap handleWrap) (*env, error) {
	t0 := nanotime()
	st, tr, err := build(wl.spec())
	if err != nil {
		return nil, fmt.Errorf("%s: building stack: %w", wl.name(), err)
	}
	e := &env{wl: wl, T: T, seed: seed, st: st, tr: tr, wrap: wrap}
	for i := 0; i < T; i++ {
		w := &worker{id: i, every: wl.latencyEvery()}
		if tr != nil {
			w.ctx = tr.newCtx(i)
			tr.binding = w.ctx
		}
		w.h = e.newHandle()
		if tr != nil {
			tr.binding = nil
		}
		if mgr := st.Elastic(); mgr != nil {
			w.poll = func(*worker) { mgr.Poll() }
			if tr != nil {
				w.poll = tracedPoll(mgr)
			}
		}
		e.workers = append(e.workers, w)
	}
	if err := wl.init(e); err != nil {
		return nil, err
	}
	warm, _ := wl.budgets()
	e.measure(e.workers, 0, warm)
	e.measure(e.workers[:1], 0, warm/4+1)
	e.setupS = float64(nanotime()-t0) / 1e9
	return e, nil
}

// tearDown drains every worker, closes the handles and verifies the
// stack is empty and whole again.
func (e *env) tearDown() error {
	runWorkers(e.workers, e.tr, func(w *worker) { e.wl.drain(e, w) })
	for _, w := range e.workers {
		alloc.CloseHandle(w.h)
	}
	err := verifyEmpty(e.st)
	if e.tr != nil {
		leafTracer.Store(nil)
	}
	e.workers = nil
	runtime.GC()
	return err
}
