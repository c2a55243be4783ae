package alloc

// BatchAllocator is the bulk-transfer contract of the layer stack: layers
// that can move many same-size chunks across a layer boundary in one call
// implement it, and the caching front-end's depot uses it so magazine
// refills and drains hit the back-end as one operation instead of a
// chunk-at-a-time loop.
//
// AllocBatch reserves up to n chunks of at least size bytes and returns
// their offsets; a short (possibly empty) result means the instance could
// not serve the remainder. Every layer counts one AllocFail for a batch
// that delivers nothing and none for a short one, so a batch is one
// allocation attempt in Stats; the chunk-at-a-time shims below instead
// count the failed Alloc that ends a short batch. FreeBatch
// releases previously allocated chunks by offset; like Free, releasing an
// offset that is not currently allocated panics.
//
// The leaf non-blocking allocators implement it natively (one level scan
// collects the whole batch, and a release clears the chunks one bunch
// holds with one CAS); the multi-instance router routes sub-batches per
// instance and hands each instance its runs of a release whole; the
// remaining layers forward it. Layers without a native implementation are
// served chunk-at-a-time by the AllocBatchOf / FreeBatchOf shims, so the
// contract is optional everywhere.
type BatchAllocator interface {
	AllocBatch(size uint64, n int) []uint64
	FreeBatch(offsets []uint64)
}

// BatchHandle is the per-worker face of the bulk contract, implemented by
// the handles of layers with native batching (the non-blocking leaves
// collect a batch in one level scan and release a bunch's chunks with one
// CAS; the router handle routes sub-batches per instance). Handles
// without it are served by the HandleAllocBatch / HandleFreeBatch shims.
// Like Handle, not safe for concurrent use.
type BatchHandle interface {
	AllocBatch(size uint64, n int) []uint64
	FreeBatch(offsets []uint64)
}

// singleOps is the subset of Alloc/Free shared by Allocator and Handle
// that the chunk-at-a-time fallbacks need, so the four shims below share
// one loop each.
type singleOps interface {
	Alloc(size uint64) (uint64, bool)
	Free(offset uint64)
}

func allocLoop(s singleOps, size uint64, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		off, ok := s.Alloc(size)
		if !ok {
			break
		}
		out = append(out, off)
	}
	return out
}

func freeLoop(s singleOps, offsets []uint64) {
	for _, off := range offsets {
		s.Free(off)
	}
}

// HandleAllocBatch reserves up to n chunks of at least size bytes through
// a per-worker handle, natively when the handle implements BatchHandle.
func HandleAllocBatch(h Handle, size uint64, n int) []uint64 {
	if b, ok := h.(BatchHandle); ok {
		return b.AllocBatch(size, n)
	}
	return allocLoop(h, size, n)
}

// HandleFreeBatch releases a batch of chunks through a per-worker handle,
// natively when the handle implements BatchHandle.
func HandleFreeBatch(h Handle, offsets []uint64) {
	if b, ok := h.(BatchHandle); ok && len(offsets) > 0 {
		b.FreeBatch(offsets)
		return
	}
	freeLoop(h, offsets)
}

// AllocBatchOf reserves up to n chunks of at least size bytes from a:
// natively when the allocator implements BatchAllocator, through a
// chunk-at-a-time shim otherwise. Mirrors SpanOf's resolve-or-fallback
// pattern.
func AllocBatchOf(a Allocator, size uint64, n int) []uint64 {
	if b, ok := a.(BatchAllocator); ok {
		return b.AllocBatch(size, n)
	}
	return allocLoop(a, size, n)
}

// FreeBatchOf releases a batch of chunks: natively when the allocator
// implements BatchAllocator, one Free at a time otherwise.
func FreeBatchOf(a Allocator, offsets []uint64) {
	if b, ok := a.(BatchAllocator); ok && len(offsets) > 0 {
		b.FreeBatch(offsets)
		return
	}
	freeLoop(a, offsets)
}
