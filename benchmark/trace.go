package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/geometry"
)

// Layers are this repository's modules, named as the boundary that
// serves them: a span of layer L covers one call into L's public
// alloc.Handle functions.
type layerID uint8

const (
	layerSlab layerID = iota
	layerFrontend
	layerMulti // elastic+multi on elastic stacks (they share the boundary)
	layerBunch
	layerElastic // Manager.Poll, timed at the generator's call site
	numLayers
)

var layerNames = [numLayers]string{"slab", "frontend", "multi", "bunch", "elastic"}

type opKind uint8

const (
	opAlloc opKind = iota
	opFree
	opAllocBatch
	opFreeBatch
	opPoll
	numKinds
)

var kindNames = [numKinds]string{"alloc", "free", "alloc_batch", "free_batch", "poll"}

// sampleEvery is how many top-level ops pass between recorded span trees.
// It is prime (not the round 64) because the churn loops alternate free
// and alloc: an even interval would only ever see one of the two.
const sampleEvery = 61

// maxSpans bounds one worker's span buffer; a worker that fills it keeps
// counting but stops recording spans (reported as trace.spans_dropped).
const maxSpans = 1 << 17

// span is one recorded call. parent indexes the same worker's buffer
// (-1 for a root); spans of one top-level call share op.
type span struct {
	op         uint64
	start, end int64
	parent     int32
	layer      layerID
	kind       opKind
}

// wctx is one worker's tracing context: every shim handle the worker's
// calls pass through points at it, so a shim learns whether the current
// top-level op is being recorded and which span encloses it without any
// shared state.
type wctx struct {
	id       int
	clock    func() int64
	enabled  bool // set at quiescent points around the traced window
	sampling bool // the current top-level op records spans
	dropped  bool
	count    int
	op       uint64
	open     int32
	spans    []span
	sampled  uint64 // top-level ops recorded
	pollHist hist   // Manager.Poll durations at the call site
	pollNs   int64
	_        [64]byte
}

func (w *wctx) begin(layer layerID, kind opKind) int32 {
	i := int32(len(w.spans))
	w.spans = append(w.spans, span{op: w.op, parent: w.open, layer: layer, kind: kind})
	w.open = i
	w.spans[i].start = w.clock()
	return i
}

func (w *wctx) end(i int32) {
	t := w.clock()
	s := &w.spans[i]
	s.end = t
	w.open = s.parent
}

// startOp decides, at the top boundary, whether this op records spans.
func (w *wctx) startOp() {
	if !w.enabled {
		return
	}
	if w.count--; w.count > 0 {
		return
	}
	w.count = sampleEvery
	if len(w.spans)+16 > cap(w.spans) {
		w.dropped = true
		return
	}
	w.sampling = true
	w.op++
	w.sampled++
}

// boundary counts what crossed one boundary through one handle.
type boundary struct {
	calls       [numKinds]uint64
	batchChunks uint64 // chunks delivered by alloc_batch + released by free_batch
}

func (b *boundary) add(o *boundary) {
	for k := range b.calls {
		b.calls[k] += o.calls[k]
	}
	b.batchChunks += o.batchChunks
}

// tracer owns the shims of one traced stack.
type tracer struct {
	clock func() int64
	top   layerID // the outermost boundary: its spans are roots

	// binding is the context NewHandle chains attach to while the
	// generator creates a worker's handle (sequential set-up). Handles
	// created later — the router's lazy per-instance sub-handles, always
	// born inside an op on the owning worker's goroutine — find their
	// context by goroutine id instead.
	binding *wctx
	mu      sync.Mutex
	byGoid  map[uint64]*wctx
	handles []*shimHandle
	convs   [numLayers]*atomic.Uint64 // allocator-level calls, per boundary
	leaves  []alloc.Allocator         // every leaf ever built, retired ones included
}

func newTracer(clock func() int64, top layerID) *tracer {
	t := &tracer{clock: clock, top: top, byGoid: map[uint64]*wctx{}}
	for i := range t.convs {
		t.convs[i] = new(atomic.Uint64)
	}
	return t
}

func (t *tracer) newCtx(id int) *wctx {
	spans := make([]span, maxSpans)
	for i := range spans {
		spans[i].parent = -1 // touch every page now, not inside a timed span
	}
	return &wctx{id: id, clock: t.clock, open: -1, count: sampleEvery, spans: spans[:0]}
}

// goid parses the current goroutine's id out of its stack header. It is
// slow and only runs when a handle is created, never on an op path.
func goid() uint64 {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	id, _ := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// enter registers the calling goroutine as worker context w until the
// returned func runs.
func (t *tracer) enter(w *wctx) func() {
	g := goid()
	t.mu.Lock()
	t.byGoid[g] = w
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.byGoid, g)
		t.mu.Unlock()
	}
}

// wrap is the wrapFunc of a traced composition.
func (t *tracer) wrap(layer layerID, a alloc.Allocator) alloc.Allocator {
	return &shim{inner: a, sizer: a.(alloc.ChunkSizer), t: t, layer: layer}
}

// tracedLeaf is the registry label of the shimmed leaf variant; multi.New
// builds its instances (elastic grows included) through it.
const tracedLeaf = "traced:" + leafVariant

// leafTracer is the tracer the registered factory wraps new leaves with.
// alloc.Register is a process-wide table, hence the package-level pointer;
// it is set before a traced stack is composed and cleared after its run.
var leafTracer atomic.Pointer[tracer]

func init() {
	alloc.Register(tracedLeaf, func(cfg alloc.Config) (alloc.Allocator, error) {
		a, err := alloc.Build(leafVariant, cfg)
		if err != nil {
			return nil, err
		}
		t := leafTracer.Load()
		if t == nil {
			return a, nil
		}
		t.mu.Lock()
		t.leaves = append(t.leaves, a)
		t.mu.Unlock()
		return t.wrap(layerBunch, a), nil
	})
}

// shim stands at one boundary: an alloc.Allocator that forwards
// everything to the layer below, counts every handle call and records
// spans for sampled ops. Allocator-level calls (slab run provisioning,
// ChunkSize metadata reads) cannot know their worker, so they are counted
// but not spanned: their time stays in the calling layer's self time.
type shim struct {
	inner alloc.Allocator
	sizer alloc.ChunkSizer
	t     *tracer
	layer layerID
}

func (s *shim) Name() string                { return s.inner.Name() }
func (s *shim) Geometry() geometry.Geometry { return s.inner.Geometry() }
func (s *shim) Stats() alloc.Stats          { return s.inner.Stats() }
func (s *shim) Unwrap() alloc.Allocator     { return s.inner }
func (s *shim) OffsetSpan() uint64          { return alloc.SpanOf(s.inner) }
func (s *shim) ChunkSize(off uint64) uint64 { return s.sizer.ChunkSize(off) }
func (s *shim) LayerStats() []alloc.LayerStats {
	return alloc.StackStats(s.inner)
}

func (s *shim) Scrub() {
	if sc, ok := s.inner.(alloc.Scrubber); ok {
		sc.Scrub()
	}
}

func (s *shim) Alloc(size uint64) (uint64, bool) {
	s.t.convs[s.layer].Add(1)
	return s.inner.Alloc(size)
}

func (s *shim) Free(off uint64) {
	s.t.convs[s.layer].Add(1)
	s.inner.Free(off)
}

func (s *shim) AllocBatch(size uint64, n int) []uint64 {
	s.t.convs[s.layer].Add(1)
	return alloc.AllocBatchOf(s.inner, size, n)
}

func (s *shim) FreeBatch(offs []uint64) {
	s.t.convs[s.layer].Add(1)
	alloc.FreeBatchOf(s.inner, offs)
}

func (s *shim) NewHandle() alloc.Handle {
	t := s.t
	t.mu.Lock()
	w := t.binding
	if w == nil {
		w = t.byGoid[goid()]
	}
	t.mu.Unlock()
	if w == nil {
		// Not a worker (the router's convenience handles, the elastic
		// manager's migration handle): count, never record.
		w = &wctx{open: -1}
	}
	h := &shimHandle{inner: s.inner.NewHandle(), w: w, layer: s.layer, top: s.layer == t.top}
	t.mu.Lock()
	t.handles = append(t.handles, h)
	t.mu.Unlock()
	return h
}

// shimHandle is the per-worker face of a shim.
type shimHandle struct {
	inner alloc.Handle
	w     *wctx
	layer layerID
	top   bool
	b     boundary
}

func (h *shimHandle) Stats() *alloc.Stats { return h.inner.Stats() }
func (h *shimHandle) Close()              { alloc.CloseHandle(h.inner) }

func (h *shimHandle) Flush() {
	if f, ok := h.inner.(interface{ Flush() }); ok {
		f.Flush()
	}
}

// enter counts one call of kind and, when the current top-level op is
// being recorded, opens its span; it returns the span's index, or -1.
func (h *shimHandle) enter(kind opKind) int32 {
	h.b.calls[kind]++
	if h.top {
		h.w.startOp()
	}
	if !h.w.sampling {
		return -1
	}
	return h.w.begin(h.layer, kind)
}

// leave closes the span enter opened, if any.
func (h *shimHandle) leave(i int32) {
	if i < 0 {
		return
	}
	h.w.end(i)
	if h.top {
		h.w.sampling = false
	}
}

func (h *shimHandle) Alloc(size uint64) (uint64, bool) {
	i := h.enter(opAlloc)
	off, ok := h.inner.Alloc(size)
	h.leave(i)
	return off, ok
}

func (h *shimHandle) Free(off uint64) {
	i := h.enter(opFree)
	h.inner.Free(off)
	h.leave(i)
}

func (h *shimHandle) AllocBatch(size uint64, n int) []uint64 {
	i := h.enter(opAllocBatch)
	out := alloc.HandleAllocBatch(h.inner, size, n)
	h.leave(i)
	h.b.batchChunks += uint64(len(out))
	return out
}

func (h *shimHandle) FreeBatch(offs []uint64) {
	h.b.batchChunks += uint64(len(offs))
	i := h.enter(opFreeBatch)
	alloc.HandleFreeBatch(h.inner, offs)
	h.leave(i)
}

// boundaries sums the per-handle counts of every boundary; quiescent
// points only.
func (t *tracer) boundaries() (per [numLayers]boundary, conv [numLayers]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, h := range t.handles {
		per[h.layer].add(&h.b)
	}
	for l := range conv {
		conv[l] = t.convs[l].Load()
	}
	return per, conv
}

// leafStats sums alloc.Stats over every leaf built for this stack. The
// router's own aggregate drops retired instances, which would lose their
// RMW counts on the elastic workload.
func (t *tracer) leafStats() alloc.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total alloc.Stats
	for _, a := range t.leaves {
		total.Add(a.Stats())
	}
	return total
}

// selfTimes is the per-layer outcome of one worker's span buffer.
type selfTimes struct {
	self    [numLayers]float64 // Σ self time, ns
	spans   [numLayers]uint64
	rootNs  float64 // Σ root-span time, less one clock pair per descendant
	rootOps uint64  // root spans of alloc/free kinds (top-level ops)
	clipped uint64  // spans whose self time was floored at 0
}

// spanCost is what recording costs, so self times can exclude it: span is
// the duration a span around a no-op reads (its own clock pair and the
// buffer write), child is what one child span adds to its parent beyond
// the child's own duration (the shim's bookkeeping around the clock reads).
type spanCost struct{ span, child float64 }

// nopAllocator serves nothing, instantly: the inner of the calibration
// stack.
type nopAllocator struct{}

func (nopAllocator) Name() string                { return "nop" }
func (nopAllocator) Geometry() geometry.Geometry { return geometry.Geometry{} }
func (nopAllocator) Alloc(uint64) (uint64, bool) { return 0, true }
func (nopAllocator) Free(uint64)                 {}
func (nopAllocator) NewHandle() alloc.Handle     { return nopHandle{} }
func (nopAllocator) Stats() alloc.Stats          { return alloc.Stats{} }
func (nopAllocator) ChunkSize(uint64) uint64     { return 0 }

type nopHandle struct{}

func (nopHandle) Alloc(uint64) (uint64, bool) { return 0, true }
func (nopHandle) Free(uint64)                 {}
func (nopHandle) Stats() *alloc.Stats         { return new(alloc.Stats) }

// calibrateSpans measures spanCost by tracing no-op calls through two
// stacked shims, with the real recording code.
func calibrateSpans(clock func() int64) spanCost {
	tr := newTracer(clock, layerSlab)
	top := tr.wrap(layerSlab, tr.wrap(layerFrontend, nopAllocator{}))
	ctx := tr.newCtx(0)
	tr.binding = ctx
	h := top.NewHandle()
	tr.binding = nil
	ctx.enabled = true
	for len(ctx.spans)+16 <= cap(ctx.spans) {
		h.Free(0)
	}
	var inner, outer []float64
	for i := range ctx.spans {
		if s := &ctx.spans[i]; s.parent >= 0 {
			p := &ctx.spans[s.parent]
			inner = append(inner, float64(s.end-s.start))
			outer = append(outer, float64(p.end-p.start-(s.end-s.start)))
		}
	}
	c := spanCost{span: trimmedMean(inner)}
	c.child = max(trimmedMean(outer)-c.span, 0)
	return c
}

// computeSelf derives each span's self time: its duration, minus the part
// its children cover, minus the calibrated cost of recording the span
// itself and of hosting each child.
func computeSelf(spans []span, cost spanCost, out *selfTimes) {
	cover := make([]float64, len(spans))
	kids := make([]uint32, len(spans))
	desc := make([]uint32, len(spans))
	// Children follow their parents in the buffer, so one backward sweep
	// has every span's totals complete before its parent reads them.
	for i := len(spans) - 1; i >= 0; i-- {
		s := &spans[i]
		if s.parent >= 0 {
			cover[s.parent] += float64(s.end - s.start)
			kids[s.parent]++
			desc[s.parent] += desc[i] + 1
		}
	}
	for i := range spans {
		s := &spans[i]
		dur := float64(s.end - s.start)
		self := dur - cost.span - cover[i] - float64(kids[i])*cost.child
		if self < 0 {
			self = 0
			out.clipped++
		}
		out.self[s.layer] += self
		out.spans[s.layer]++
		if s.parent < 0 && s.kind != opPoll {
			out.rootNs += dur - float64(desc[i]+1)*cost.span - float64(desc[i])*cost.child
			out.rootOps++
		}
	}
}

// writeSpans appends one worker's spans to the JSONL trace.
func writeSpans(w *bufio.Writer, worker int, spans []span) {
	for i := range spans {
		s := &spans[i]
		parent := int64(s.parent)
		fmt.Fprintf(w, `{"worker":%d,"span":%d,"parent":%d,"op":%d,"layer":%q,"kind":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			worker, i, parent, s.op, layerNames[s.layer], kindNames[s.kind], s.start, s.end)
	}
}

// writeTrace writes every worker's spans to path.
func writeTrace(path string, ctxs []*wctx) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, c := range ctxs {
		writeSpans(w, c.id, c.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPoll times Manager.Poll at the generator's call site and records
// it as a root span of layer "elastic" (every poll, not one in 61: polls
// are rare).
func tracedPoll(mgr *elastic.Manager) func(w *worker) {
	return func(w *worker) {
		c := w.ctx
		if !c.enabled {
			mgr.Poll()
			return
		}
		t0 := c.clock()
		if len(c.spans)+16 <= cap(c.spans) {
			i := c.begin(layerElastic, opPoll)
			mgr.Poll()
			c.end(i)
		} else {
			mgr.Poll()
		}
		d := c.clock() - t0
		c.pollHist.record(d)
		c.pollNs += d
	}
}
