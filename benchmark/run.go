package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/alloc"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// shape is how one invocation splits its measuring time.
type shape struct {
	seconds float64 // total measuring time of the run (--seconds)
	epochs  int     // set-ups of the untraced run, each measured on its own
}

// The run shape (README, "Run shape", has the measurements behind it).
// Untraced: epochs of one set-up each, made of rounds of one window at T
// workers followed by one at a single worker, so both see the same
// stretches of machine time. Traced: one untraced reference window, then
// the traced window, as shares of --seconds.
const (
	roundSeconds   = 0.4  // one T-worker window plus one 1-worker window
	shareT         = 0.65 // of a round
	shareReference = 0.3
	shareTraced    = 0.5
	tracedRounds   = 8 // reference/traced window pairs of a traced run
)

// roundsPerEpoch fits --seconds into whole rounds, at least one per epoch.
func (sh shape) roundsPerEpoch() int {
	return max(1, int(sh.seconds/roundSeconds/float64(sh.epochs)+0.5))
}

// runResult is what one (workload, trace mode) run yields.
type runResult struct {
	metrics           map[string]metric
	attempted, failed uint64
	notes             []string // human-readable lines printed above the JSON
}

func (r *runResult) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

func (r *runResult) notef(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// shuffleHeap allocates a seeded handful of objects in each small size
// class and returns them for the caller to hold through the epoch. Go's
// heap hands a torn-down stack's slots to the next set-up in the same
// order, so without it every epoch of a process would give the stack the
// same placement (which structures share a cache line, which offsets
// alias), and the run would report that one placement's speed. Displacing
// the next allocations makes each epoch a fresh draw.
func shuffleHeap(seed uint64, epoch int) [][]byte {
	rng := workerRNG(seed, 1<<21+epoch)
	var ballast [][]byte
	for size := 8; size <= 4096; size += 8 + size/8 {
		for n := rng.below(64); n > 0; n-- {
			ballast = append(ballast, make([]byte, size))
		}
	}
	return ballast
}

// runUntraced measures the end-to-end metrics on the nbbs.New stack, in
// sh.epochs epochs: each sets the workload up afresh (one setup_s sample),
// runs its share of the rounds and tears down again.
func runUntraced(wl workload, T int, seed uint64, sh shape) (*runResult, error) {
	r := &runResult{metrics: map[string]metric{}}
	rounds := sh.roundsPerEpoch()
	total := float64(rounds * sh.epochs)
	lenT := sh.seconds * shareT / total
	len1 := sh.seconds * (1 - shareT) / total
	var setups, clocks, ops, ops1, a50, f50, f99, hi, lo []float64
	var allocs, frees hist
	for epoch := 0; epoch < sh.epochs; epoch++ {
		ballast := shuffleHeap(seed, epoch)
		e, err := setUp(wl, T, seed, untracedStack, nil)
		if err != nil {
			return nil, err
		}
		if epoch == 0 {
			r.notef("stack %s, T=%d workers, seed %d", e.st.Name(), T, seed)
		}
		setups = append(setups, e.setupS)
		// One calibration reads 24 to 36 ns depending on the moment it is
		// taken; the median over the epochs is steady to a few tenths.
		clocks = append(clocks, calibrateClock(nanotime))
		r.notef("  epoch %d: set up in %.4f s, clock pair %.1f ns", epoch, e.setupS, clocks[epoch])
		for i := 0; i < rounds; i++ {
			res := e.measure(e.workers, lenT, 0)
			ops = append(ops, res.opsPerS)
			a50 = append(a50, res.alloc.quantile(0.5))
			f50, f99 = append(f50, res.free.quantile(0.5)), append(f99, res.free.quantile(0.99))
			hi, lo = append(hi, res.perLiveHi), append(lo, res.perLiveLo)
			allocs.merge(&res.alloc)
			frees.merge(&res.free)
			r.attempted += res.ops + res.fails
			r.failed += res.fails
			res1 := e.measure(e.workers[:1], len1, 0)
			ops1 = append(ops1, res1.opsPerS)
			r.attempted += res1.ops + res1.fails
			r.failed += res1.fails
			r.notef("  round %2d: %.0f ops/s over %.3f s, 1 worker %.0f ops/s over %.3f s; alloc p50=%.1f p99=%.1f (n=%d) free p50=%.1f p99=%.1f (n=%d)",
				i, res.opsPerS, res.seconds, res1.opsPerS, res1.seconds,
				a50[len(a50)-1], res.alloc.quantile(0.99), res.alloc.n,
				f50[len(f50)-1], f99[len(f99)-1], res.free.n)
		}
		if err := e.tearDown(); err != nil {
			return nil, err
		}
		runtime.KeepAlive(ballast)
	}
	chk, err := checkedPass(wl, T, seed)
	if err != nil {
		return nil, err
	}
	r.attempted += chk.attempted
	r.failed += chk.failed

	clockNs := median(clocks)
	r.notef("  latencies above include one clock pair (%.1f ns); the metrics below do not", clockNs)
	r.notef("  all windows: alloc %s", &allocs)
	r.notef("  all windows: free  %s", &frees)
	q1, q3 := quartiles(ops)
	r.notef("  ops_per_s over %d windows: quartiles %.0f .. %.0f", len(ops), q1, q3)
	net := func(windows []float64) float64 { return max(median(windows)-clockNs, 0) }
	r.set("ops_per_s", median(ops), "ops/s")
	r.set("ops_per_s_1t", median(ops1), "ops/s")
	r.set("scaling_eff", median(ops)/(float64(T)*median(ops1)), "ratio")
	r.set("alloc_p50_ns", net(a50), "ns")
	r.set("free_p50_ns", net(f50), "ns")
	r.set("free_p99_ns", net(f99), "ns")
	r.set("reserved_per_requested", chk.reservedPerRequested, "ratio")
	r.set("committed_per_live_peak", median(hi), "ratio")
	r.set("committed_per_live_trough", median(lo), "ratio")
	r.set("setup_s", median(setups), "s")
	return r, nil
}

// layerEntry finds the LayerStats entry whose label starts with prefix.
func layerEntry(ls []alloc.LayerStats, prefix string) (alloc.LayerStats, bool) {
	for _, l := range ls {
		if strings.HasPrefix(l.Layer, prefix) {
			return l, true
		}
	}
	return alloc.LayerStats{Extra: map[string]uint64{}}, false
}

// ratio is a/b, 0 when b is 0 (an absent layer prints zeros).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshot is every count the per-layer metrics are differences of.
type snapshot struct {
	per   [numLayers]boundary
	conv  [numLayers]uint64
	layer []alloc.LayerStats
	leaf  alloc.Stats
	ec    [4]uint64 // elastic grows, retires, denied, grow retries
	mem   [2]uint64 // commits, decommits
}

func takeSnapshot(e *env) snapshot {
	var s snapshot
	s.per, s.conv = e.tr.boundaries()
	s.layer = e.st.LayerStats()
	s.leaf = e.tr.leafStats()
	if mgr := e.st.Elastic(); mgr != nil {
		c := mgr.Counters()
		s.ec = [4]uint64{c.Grows, c.Retires, c.DeniedAtCap + c.DeniedBackpressure, c.GrowRetries}
	}
	if ms, ok := e.st.MemStats(); ok {
		s.mem = [2]uint64{ms.Commits, ms.Decommits}
	}
	return s
}

// delta returns after-before of a named counter of the layer entry whose
// label starts with prefix.
func delta(before, after []alloc.LayerStats, prefix, key string) float64 {
	b, _ := layerEntry(before, prefix)
	a, _ := layerEntry(after, prefix)
	return float64(a.Extra[key]) - float64(b.Extra[key])
}

// runTraced measures the per-layer metrics: windows on the nbbs.New stack
// (the untraced reference) alternate with traced windows on the
// hand-composed stack, so both sides of trace.overhead_ratio see the same
// stretches of machine time.
func runTraced(wl workload, T int, seed uint64, sh shape, clockNs float64, outDir string) (*runResult, error) {
	r := &runResult{metrics: map[string]metric{}}
	ref, err := setUp(wl, T, seed, untracedStack, nil)
	if err != nil {
		return nil, err
	}
	cost := calibrateSpans(nanotime)
	e, err := setUp(wl, T, seed, tracedStack, nil)
	if err != nil {
		return nil, err
	}
	r.notef("traced stack %s, T=%d workers, seed %d", e.st.Name(), T, seed)
	rounds := max(1, min(tracedRounds, int(sh.seconds)))
	var refRes, res windowResult // totals over the rounds
	var refRates, rates []float64
	before := takeSnapshot(e)
	for i := 0; i < rounds; i++ {
		win := ref.measure(ref.workers, sh.seconds*shareReference/float64(rounds), 0)
		refRes.add(win)
		refRates = append(refRates, win.opsPerS)
		for _, w := range e.workers {
			w.ctx.enabled = true
		}
		win = e.measure(e.workers, sh.seconds*shareTraced/float64(rounds), 0)
		for _, w := range e.workers {
			w.ctx.enabled = false
		}
		res.add(win)
		rates = append(rates, win.opsPerS)
	}
	after := takeSnapshot(e)
	refRes.opsPerS, res.opsPerS = median(refRates), median(rates)
	r.attempted += refRes.ops + refRes.fails + res.ops + res.fails
	r.failed += refRes.fails + res.fails
	if err := ref.tearDown(); err != nil {
		return nil, err
	}

	// Live requested bytes and the slab's fragmentation gauge, both at the
	// quiescent end of the window.
	var live int64
	for _, w := range e.workers {
		live += w.live
	}
	slabEntry, _ := layerEntry(after.layer, "slab")
	fragBytes := float64(slabEntry.Extra["slab_frag_bytes"])
	rss := rssBytes()

	var self selfTimes
	var ctxs []*wctx
	var polls hist
	var pollNs int64
	var sampled, dropped uint64
	for _, w := range e.workers {
		computeSelf(w.ctx.spans, cost, &self)
		ctxs = append(ctxs, w.ctx)
		polls.merge(&w.ctx.pollHist)
		pollNs += w.ctx.pollNs
		sampled += w.ctx.sampled
		if w.ctx.dropped {
			dropped++
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(outDir, "trace-"+wl.name()+".jsonl")
	if err := writeTrace(tracePath, ctxs); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	if err := e.tearDown(); err != nil {
		return nil, err
	}

	ops := float64(res.ops)
	kops := ops / 1000
	calls := func(l layerID) float64 {
		var n uint64
		for k := opAlloc; k <= opFreeBatch; k++ {
			n += after.per[l].calls[k] - before.per[l].calls[k]
		}
		return float64(n + after.conv[l] - before.conv[l])
	}
	batchLen := func(l layerID) float64 {
		n := after.per[l].calls[opAllocBatch] + after.per[l].calls[opFreeBatch] -
			before.per[l].calls[opAllocBatch] - before.per[l].calls[opFreeBatch]
		return ratio(float64(after.per[l].batchChunks-before.per[l].batchChunks), float64(n))
	}
	selfPerOp := func(l layerID) float64 { return ratio(self.self[l], float64(self.rootOps)) }
	d := func(prefix, key string) float64 { return delta(before.layer, after.layer, prefix, key) }

	// slab
	slabCalls := calls(layerSlab)
	slabMisses := d("slab", "slab_refills") + d("slab", "slab_spills") + calls(layerFrontend)
	r.set("slab.calls_per_op", ratio(slabCalls, ops), "1/op")
	r.set("slab.self_ns_per_op", selfPerOp(layerSlab), "ns/op")
	r.set("slab.hit_ratio", ratio(max(slabCalls-slabMisses, 0), slabCalls), "ratio")
	r.set("slab.refills_per_kop", ratio(d("slab", "slab_refills"), kops), "1/kop")
	r.set("slab.spills_per_kop", ratio(d("slab", "slab_spills"), kops), "1/kop")
	slabAllocs := float64(after.per[layerSlab].calls[opAlloc] - before.per[layerSlab].calls[opAlloc])
	r.set("slab.fallthrough_ratio", ratio(d("slab", "slab_fallthroughs"), slabAllocs), "ratio")
	r.set("slab.frag_bytes_per_live_byte", ratio(fragBytes, float64(live)), "ratio")

	// frontend
	hits, misses := d("depot", "hits"), d("depot", "misses")
	pops, popMisses := d("depot", "depot_full_pops"), d("depot", "depot_pop_misses")
	r.set("frontend.calls_per_op", ratio(calls(layerFrontend), ops), "1/op")
	r.set("frontend.self_ns_per_op", selfPerOp(layerFrontend), "ns/op")
	r.set("frontend.mag_hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("frontend.depot_hit_ratio", ratio(pops, pops+popMisses), "ratio")
	r.set("frontend.batch_refills_per_kop", ratio(d("depot", "depot_batch_refills"), kops), "1/kop")
	r.set("frontend.drained_chunks_per_kop", ratio(d("depot", "depot_drained_chunks"), kops), "1/kop")

	// multi: the router entry is labelled "multi[...]" or "mapped+multi[...]".
	routerPrefix := "multi["
	if _, ok := layerEntry(after.layer, "mapped+multi["); ok {
		routerPrefix = "mapped+multi["
	}
	rb, _ := layerEntry(before.layer, routerPrefix)
	ra, _ := layerEntry(after.layer, routerPrefix)
	r.set("multi.calls_per_op", ratio(calls(layerMulti), ops), "1/op")
	r.set("multi.self_ns_per_op", selfPerOp(layerMulti), "ns/op")
	r.set("multi.fallback_ratio", ratio(d(routerPrefix, "fallbacks"), float64(ra.Stats.Allocs-rb.Stats.Allocs)), "ratio")
	r.set("multi.batch_mean_len", batchLen(layerMulti), "chunks")

	// elastic and mem
	r.set("elastic.self_ns_per_op", ratio(float64(pollNs), ops), "ns/op")
	r.set("elastic.poll_p50_us", polls.quantile(0.5)/1000, "us")
	r.set("elastic.poll_p99_us", polls.quantile(0.99)/1000, "us")
	for i, name := range []string{"elastic.grows", "elastic.retires", "elastic.denied", "elastic.grow_retries"} {
		r.set(name, float64(after.ec[i]-before.ec[i]), "count")
	}
	r.set("mem.commits", float64(after.mem[0]-before.mem[0]), "count")
	r.set("mem.decommits", float64(after.mem[1]-before.mem[1]), "count")
	var peak, trough uint64
	if len(res.committed) > 0 {
		c := append([]uint64(nil), res.committed...)
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
		trough, peak = c[0], c[len(c)-1]
	} else if _, ok := e.st.MemStats(); ok {
		peak, trough = e.committed(), e.committed()
	}
	r.set("mem.committed_peak_bytes", float64(peak), "bytes")
	r.set("mem.committed_trough_bytes", float64(trough), "bytes")
	r.set("mem.rss_peak_bytes", float64(rss), "bytes")

	// bunch
	leaf := after.leaf
	lb := before.leaf
	bunchCalls := calls(layerBunch)
	leafAllocTries := float64(leaf.Allocs - lb.Allocs + leaf.AllocFails - lb.AllocFails)
	r.set("bunch.calls_per_op", ratio(bunchCalls, ops), "1/op")
	r.set("bunch.self_ns_per_call", ratio(self.self[layerBunch], float64(self.spans[layerBunch])), "ns/call")
	r.set("bunch.self_ns_per_op", selfPerOp(layerBunch), "ns/op")
	r.set("bunch.rmw_per_call", ratio(float64(leaf.RMW-lb.RMW), bunchCalls), "1/call")
	r.set("bunch.casfail_per_call", ratio(float64(leaf.CASFail-lb.CASFail), bunchCalls), "1/call")
	r.set("bunch.retries_per_call", ratio(float64(leaf.Retries-lb.Retries), bunchCalls), "1/call")
	r.set("bunch.alloc_fail_ratio", ratio(float64(leaf.AllocFails-lb.AllocFails), leafAllocTries), "ratio")
	r.set("bunch.batch_mean_len", batchLen(layerBunch), "chunks")

	// top and trace
	r.set("top.alloc_p99_ns", refRes.alloc.quantile(0.99), "ns")
	r.set("top.alloc_p999_ns", refRes.alloc.quantile(0.999), "ns")
	r.set("top.free_p999_ns", refRes.free.quantile(0.999), "ns")
	r.set("top.fail_ratio", ratio(float64(refRes.fails), float64(refRes.allocs+refRes.fails)), "ratio")
	r.set("trace.overhead_ratio", ratio(refRes.opsPerS, res.opsPerS), "ratio")
	r.set("trace.clock_ns", clockNs, "ns")
	r.set("trace.span_ns", cost.span, "ns")
	r.set("trace.child_ns", cost.child, "ns")
	var selfSum float64
	for _, l := range []layerID{layerSlab, layerFrontend, layerMulti, layerBunch} {
		selfSum += self.self[l]
	}
	r.set("trace.self_sum_ratio", ratio(selfSum, self.rootNs), "ratio")
	r.set("trace.sampled_ops", float64(sampled), "count")
	r.set("trace.workers_truncated", float64(dropped), "count")

	r.notef("  untraced reference %.0f ops/s; traced %.0f ops/s over %.2f s; %d spans trees, %d clipped self times; spans in %s",
		refRes.opsPerS, res.opsPerS, res.seconds, sampled, self.clipped, tracePath)
	r.notef("  untraced alloc %s", &refRes.alloc)
	r.notef("  untraced free  %s", &refRes.free)
	if polls.n > 0 {
		r.notef("  elastic Poll   %s; %d whole cycles", &polls, res.cycles)
	}
	return r, nil
}

// rssBytes reads the resident set size from /proc/self/statm (0 where
// there is none).
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident uint64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0
	}
	return resident * uint64(os.Getpagesize())
}
