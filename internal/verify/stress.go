package verify

import (
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/elastic"
)

// StressConfig parameterizes a deterministic concurrent stress run.
type StressConfig struct {
	// Workers is the number of concurrent goroutines.
	Workers int
	// Ops is the number of operations each worker attempts.
	Ops int
	// Sizes is the request-size mix workers draw from uniformly.
	Sizes []uint64
	// FreeBias in [0,100] is the percentage of steps that free a live
	// chunk (when one exists); the rest allocate. Higher bias keeps
	// occupancy lower.
	FreeBias int
	// MaxLive caps each worker's live set; beyond it the worker frees
	// regardless of bias (bounds occupancy deterministically). Zero means
	// no cap.
	MaxLive int
	// Seed makes the whole run reproducible: worker k derives its private
	// stream from Seed and k only.
	Seed uint64
}

// Report is the outcome of a stress run.
type Report struct {
	Allocs     uint64
	Frees      uint64
	AllocFails uint64
	Overlaps   uint64 // S1 violations (must be 0)
	Unbacked   uint64 // S2 violations (must be 0)
	PeakBytes  int64  // maximum concurrently live bytes
	DrainErr   error  // non-nil when the checker did not quiesce
}

// Failed reports whether the run observed any correctness violation.
func (r Report) Failed() bool {
	return r.Overlaps != 0 || r.Unbacked != 0 || r.DrainErr != nil
}

// String renders the report for CLI use.
func (r Report) String() string {
	status := "OK"
	if r.Failed() {
		status = "FAILED"
	}
	s := fmt.Sprintf("%s: %d allocs, %d frees, %d alloc-fails, peak %d bytes live",
		status, r.Allocs, r.Frees, r.AllocFails, r.PeakBytes)
	if r.Overlaps != 0 {
		s += fmt.Sprintf(", %d S1 overlaps", r.Overlaps)
	}
	if r.Unbacked != 0 {
		s += fmt.Sprintf(", %d S2 unbacked frees", r.Unbacked)
	}
	if r.DrainErr != nil {
		s += ", drain: " + r.DrainErr.Error()
	}
	return s
}

// xorshift is the workers' private PRNG: no allocation, no locking, and
// identical across runs with the same seed.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// Stress drives Workers handles of the allocator with concurrent
// schedules and returns the aggregated report. Every worker claims each
// chunk it is handed on one shared Checker at max(ChunkSize(off), the
// request rounded up to MinSize): the extent the stack says it reserved,
// but never less than was asked for, so a chunk delivered smaller than
// requested overlaps its neighbour even when ChunkSize reports the small
// size. A chunk's claim is released, exactly as claimed, before its free.
// Each worker frees its live set at the end, and the checker's
// quiescence is part of the verdict. The allocator must implement
// alloc.ChunkSizer.
func Stress(a alloc.Allocator, cfg StressConfig) (Report, error) {
	if cfg.Workers <= 0 || cfg.Ops <= 0 || len(cfg.Sizes) == 0 {
		return Report{}, fmt.Errorf("verify: stress config needs workers, ops and sizes")
	}
	sizer, ok := a.(alloc.ChunkSizer)
	if !ok {
		return Report{}, fmt.Errorf("verify: %s cannot report chunk sizes", a.Name())
	}
	unit := a.Geometry().MinSize
	chk := NewChecker(reach(a), unit)
	handles := make([]alloc.Handle, cfg.Workers)
	for w := range handles {
		handles[w] = a.NewHandle()
	}
	var wg sync.WaitGroup
	for w, h := range handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xorshift(cfg.Seed*2654435761 + uint64(w)*40503 + 1)
			var live []chunk
			// free releases the k-th live chunk's claim, then frees it:
			// once freed, the chunk may at once be delivered to another
			// worker, and a late release would misfire as an S2 violation.
			free := func(k int) {
				c := live[k]
				chk.Release(c.off, c.reserved)
				h.Free(c.off)
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			for i := 0; i < cfg.Ops; i++ {
				if cfg.MaxLive > 0 && len(live) >= cfg.MaxLive ||
					len(live) > 0 && int(rng.next()%100) < cfg.FreeBias {
					free(int(rng.next() % uint64(len(live))))
					continue
				}
				size := cfg.Sizes[rng.next()%uint64(len(cfg.Sizes))]
				if off, ok := h.Alloc(size); ok {
					reserved := max(sizer.ChunkSize(off), (size+unit-1)/unit*unit)
					chk.Claim(off, reserved)
					live = append(live, chunk{off, reserved})
				}
			}
			for len(live) > 0 {
				free(len(live) - 1)
			}
		}()
	}
	wg.Wait()
	var stats alloc.Stats
	for _, h := range handles {
		stats.Add(*h.Stats())
	}
	return Report{
		Allocs:     stats.Allocs,
		Frees:      stats.Frees,
		AllocFails: stats.AllocFails,
		Overlaps:   chk.Overlaps(),
		Unbacked:   chk.Unbacked(),
		PeakBytes:  chk.PeakBytes(),
		DrainErr:   chk.Quiesced(),
	}, nil
}

// reach returns the span of offsets a can deliver: its current span, or
// MaxInstances windows on an elastic stack, which may grow mid-run.
func reach(a alloc.Allocator) uint64 {
	if mgr := alloc.Find[*elastic.Manager](a); mgr != nil {
		return uint64(mgr.Config().MaxInstances) * mgr.Router().InstanceSpan()
	}
	return alloc.SpanOf(a)
}
