// Package bunch implements the paper's non-blocking buddy system
// (§III.A-D, Algorithms 1-4) over word-packed status lanes, at two bunch
// heights: k = 4 is the 4-levels optimization (evaluation label
// "4lvl-nb"), k = 1 the 1-level layout ("1lvl-nb"). Both run the same
// three-phase NBALLOC/NBFREE; k only decides how many tree levels one
// word's lane covers.
//
// Tree levels are grouped into bunches of k consecutive levels (see
// internal/geometry/bunch.go). Only the deepest level of each bunch — the
// bunch leaves — is materialized: one status byte per bunch leaf, eight
// per 64-bit word (the paper packs 5-bit fields into 40 bits; we spend the
// spare 3 bits per leaf to put every field on a byte boundary, which buys
// the SWAR level scan below). The state of the interior nodes of a bunch
// is derived from its leaves: partial occupancy is the OR of the children's
// occupancy, full occupancy the AND, and coalescing the OR of the
// children's coalescing bits (paper Figure 6). Bunch-leaf levels are
// aligned to the bottom of the tree, so tree leaves are always
// materialized and the topmost bunch may be partial. At k = 1 every level
// is materialized and nothing is derived.
//
// Every mutation is a single-word CAS on the containing word that
// rewrites only the target's lanes; an operation that loses a CAS race
// either retries the same step (when the update remains coherent —
// including a loss purely to traffic on sibling lanes of the word) or
// aborts and moves to another node (when a conflicting allocation
// reserved the chunk). No thread ever blocks another: the algorithm is
// lock-free (paper appendix, Theorem A.1). The height k enters in two
// places:
//
//   - a direct occupy or release of a node touches all the bunch-leaf
//     fields covering it in one CAS (they fit a single word by layout);
//   - climbs step from one materialized level to the next (k levels per
//     RMW), and the per-level buddy checks in between are answered by
//     deriving the intermediate state from the already-witnessed word,
//     costing no extra atomic instruction.
//
// The level scan is a SWAR pass: one atomic load of a word answers all
// the nodes the word covers at the scanned level (eight at the
// materialized levels, fewer above them), and bit tricks locate the first
// free candidate. It runs in two stages: status.FirstFreeRun probes the
// word the scan starts in, which may start mid-word, and status.NextRun
// walks the rest of the level in whole words, one loop per node width
// with a constant step between loads, so a word with no candidate costs a
// load and a compare. Each handle starts its scan of a level at a roving
// point (Knuth's roving pointer): one past the last node it delivered
// there, rewound to any lower node it frees, both counted from the
// handle's scattered home slot. A handle therefore never re-walks its own
// live deliveries, and its frees keep the scan first-fit.
//
// The same code, at the same two heights, is also the paper's spin-locked
// baseline ("1lvl-sl", "4lvl-sl"; see locked.go): every operation runs as
// one critical section under one spin-lock, and each word update the
// climbs would CAS is a plain store instead. Which of the two an update
// is gets decided in two inlined helpers, Handle.cas for the words and
// Handle.swapIndex for Free's swap of an index[] entry (an allocation's
// index store is plain under both), so the NB-vs-SL gap measures the
// synchronization discipline and nothing else.
package bunch

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"repro/internal/alloc"
	"repro/internal/geometry"
	"repro/internal/spinlock"
	"repro/internal/status"
)

func init() {
	alloc.Register("1lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		return New1Lvl(cfg.Total, cfg.MinSize, cfg.MaxSize)
	})
	alloc.Register("4lvl-nb", func(cfg alloc.Config) (alloc.Allocator, error) {
		return New4Lvl(cfg.Total, cfg.MinSize, cfg.MaxSize)
	})
	alloc.Register("1lvl-sl", func(cfg alloc.Config) (alloc.Allocator, error) {
		return newLocked("1lvl-sl", 1, cfg)
	})
	alloc.Register("4lvl-sl", func(cfg alloc.Config) (alloc.Allocator, error) {
		return newLocked("4lvl-sl", geometry.BunchSpan, cfg)
	})
}

// Allocator is a single buddy-system instance, non-blocking unless lock is
// set.
type Allocator struct {
	name string
	geo  geometry.Geometry
	// k is the bunch height: the tree levels one materialized lane covers.
	k int
	// bunchLanes is the number of leaves of one bunch, 1<<(k-1).
	bunchLanes int
	// top is the materialized level covering MaxLevel: every climb ends
	// there.
	top int
	// levels locates each tree level's state in words, so the hot paths
	// reach a node's word without a division.
	levels [32]levelMap
	// words holds the bunch words of all materialized levels, deepest
	// level first.
	words []atomic.Uint64
	// index maps each allocation unit (offset/MinSize) to the tree node
	// that served the chunk whose head it is; 0 means "not delivered",
	// which is what makes double frees detectable. Entries are in tree
	// order, not unit order (see headSlot), so the heads of neighbouring
	// large chunks share cache lines.
	index []atomic.Uint32
	// unitShift is log2(MinSize): offset>>unitShift is an offset's
	// allocation unit, which headSlot maps to its entry in index with no
	// division on the hot path.
	unitShift uint
	// scatter disables the scattered scan start when false (ablation A2).
	scatter bool
	// lock is the SL discipline's spin-lock, nil under the NB discipline.
	lock spinlock.Locker

	reg    alloc.Registry[*Handle]
	conv   alloc.ConvPool[*Handle] // handles behind Alloc/Free/AllocBatch/FreeBatch
	nextID atomic.Uint64
}

// levelMap locates one tree level in the words: lam is the materialized
// level carrying its state and a node of the level covers 1<<shift lanes
// (shift = lam - level). Bunch leaf f of lam sits in lane f&7 of word
// off+f>>3: every level of width >= 8 starts on a word boundary, and each
// narrower one gets a word of its own in which its leaves keep their lane
// f&7, so a lane never needs the level's first node subtracted.
type levelMap struct {
	lam   int
	shift uint
	off   uint64
}

// Option tweaks allocator construction.
type Option func(*Allocator)

// WithoutScatter makes every allocation scan its target level from the
// first node, the configuration the scattered-start ablation compares
// against.
func WithoutScatter() Option { return func(a *Allocator) { a.scatter = false } }

// New1Lvl builds a "1lvl-nb" instance (bunch height 1) managing total
// bytes with the given allocation unit and maximum request size (all
// powers of two).
func New1Lvl(total, minSize, maxSize uint64, opts ...Option) (*Allocator, error) {
	return newAllocator("1lvl-nb", 1, total, minSize, maxSize, opts)
}

// New4Lvl builds a "4lvl-nb" instance (bunch height 4), as New1Lvl.
func New4Lvl(total, minSize, maxSize uint64, opts ...Option) (*Allocator, error) {
	return newAllocator("4lvl-nb", geometry.BunchSpan, total, minSize, maxSize, opts)
}

func newAllocator(name string, k int, total, minSize, maxSize uint64, opts []Option) (*Allocator, error) {
	geo, err := geometry.New(total, minSize, maxSize)
	if err != nil {
		return nil, err
	}
	if geo.Depth > 31 {
		return nil, fmt.Errorf("bunch: depth %d exceeds the uint32 node-index range", geo.Depth)
	}
	a := &Allocator{
		name:       name,
		geo:        geo,
		k:          k,
		bunchLanes: 1 << (k - 1),
		top:        geo.LeafLevelFor(geo.MaxLevel, k),
		index:      make([]atomic.Uint32, geo.Leaves()),
		unitShift:  uint(bits.TrailingZeros64(minSize)),
		scatter:    true,
	}
	var words uint64
	for _, lam := range geo.LeafLevels(k) {
		off := words - geometry.FirstOfLevel(lam)>>3 // may wrap below zero; off+f>>3 does not
		for l := lam; l > lam-k && l >= 0; l-- {
			a.levels[l] = levelMap{lam: lam, shift: uint(lam - l), off: off}
		}
		words += geometry.WordsAtLevel(lam)
	}
	a.words = make([]atomic.Uint64, words)
	for _, o := range opts {
		o(a)
	}
	a.conv.New = a.newHandle
	return a, nil
}

// Name implements alloc.Allocator.
func (a *Allocator) Name() string { return a.name }

// Geometry implements alloc.Allocator.
func (a *Allocator) Geometry() geometry.Geometry { return a.geo }

// wordOf returns the word holding leaf (which must be at the materialized
// level lam) and the field position of leaf within it.
func (a *Allocator) wordOf(leaf uint64, lam int) (*atomic.Uint64, int) {
	return &a.words[a.levels[lam].off+leaf>>3], int(leaf & 7)
}

// nodeWord locates the word and covered field range of an arbitrary node,
// and the materialized level lam of those fields.
func (a *Allocator) nodeWord(n uint64) (word *atomic.Uint64, field, count, lam int) {
	m := &a.levels[geometry.LevelOf(n)]
	first := n << m.shift
	return &a.words[m.off+first>>3], int(first & 7), 1 << m.shift, m.lam
}

// cas replaces word's value w, which the caller has just loaded, with to.
// Without the lock it is a CAS, counted in RMW and CASFail, that fails when
// another operation changed the word in between. Under the lock no other
// operation can have, so it is a plain store that counts nothing; the
// lock's acquire and release order it against every other access.
func (h *Handle) cas(word *atomic.Uint64, w, to uint64) bool {
	if h.a.lock == nil {
		h.stats.RMW++
		if word.CompareAndSwap(w, to) {
			return true
		}
		h.stats.CASFail++
		return false
	}
	*(*uint64)(unsafe.Pointer(word)) = to
	return true
}

// headSlot returns the index slot of the chunk head at offset: the
// buddy node whose right half starts at the offset's unit (treeSlot).
func (a *Allocator) headSlot(offset uint64) uint64 {
	return treeSlot(offset>>a.unitShift, uint64(len(a.index)))
}

// treeSlot places unit u of a tree with leaves units (a power of two) in
// tree order: (leaves|u) >> (TrailingZeros(u)+1) is the internal node
// whose right half starts at u, and unit 0, which starts no right half,
// takes slot 0 (the shift is then 65). Distinct units get distinct slots
// below leaves, and a chunk head at level l has at least Depth-l trailing
// zeros, so its slot is below FirstOfLevel(l): the heads of all level-l
// chunks fill the first 1<<l slots, where unit order put them 1<<(Depth-l)
// entries apart, 2 KiB for 4 KiB chunks at 8 B units (DESIGN.md, "The
// chunk-head index").
func treeSlot(u, leaves uint64) uint64 {
	return (leaves | u) >> (uint(bits.TrailingZeros64(u)) + 1)
}

// swapIndex stores n into index slot and returns the node it held: an
// atomic swap without the lock, a plain load and store under it. Neither
// counts as an RMW; the paper's tallies cover the tree words only. Free
// swaps in 0 with it, so that of two racing frees of one chunk exactly one
// reads the node and the other panics.
func (h *Handle) swapIndex(slot uint64, n uint32) uint32 {
	p := &h.a.index[slot]
	if h.a.lock == nil {
		return p.Swap(n)
	}
	q := (*uint32)(unsafe.Pointer(p))
	old := *q
	*q = n
	return old
}

// Alloc serves a one-off request through a recycled convenience handle.
// Hot loops should use NewHandle instead.
func (a *Allocator) Alloc(size uint64) (uint64, bool) {
	h := a.conv.Borrow()
	off, ok := h.Alloc(size)
	a.conv.Return(h)
	return off, ok
}

// Free releases a chunk through a recycled convenience handle.
func (a *Allocator) Free(offset uint64) {
	h := a.conv.Borrow()
	h.Free(offset)
	a.conv.Return(h)
}

// NewHandle implements alloc.Allocator.
func (a *Allocator) NewHandle() alloc.Handle { return a.newHandle() }

func (a *Allocator) newHandle() *Handle {
	h := &Handle{a: a, id: a.nextID.Add(1) - 1}
	a.reg.Add(h)
	return h
}

// Stats implements alloc.Allocator; call it only at quiescent points.
func (a *Allocator) Stats() alloc.Stats { return a.reg.Stats() }

// Handle is the per-worker face of the allocator (not safe for concurrent
// use). It carries the roving scan start that spreads concurrent
// same-level allocations over different nodes, and private counters.
type Handle struct {
	a     *Allocator
	id    uint64
	stats alloc.Stats
	// rover[l] is where the next scan of level l starts, as a slot offset
	// from this handle's home at l (see start).
	rover [32]uint32
	// Workers' handles are allocated back to back and every operation
	// writes the counters and the rover, so the pad rounds the handle up
	// to four whole cache lines: at 80 bytes one worker's counters shared
	// a line with the next handle's allocator pointer, which tripled
	// tree-nearfull's free p50 on a 2-vCPU host.
	_ [56]byte
}

// Stats implements alloc.Handle.
func (h *Handle) Stats() *alloc.Stats { return &h.stats }

// Close implements alloc.HandleCloser: fold this handle's counters into
// the allocator's retained totals and unregister it, so handle-churning
// callers do not grow the registry without bound. The handle must not be
// used afterwards.
func (h *Handle) Close() { h.a.reg.Remove(h, nil) }

// Handles returns the number of registered (not yet closed) handles — a
// diagnostic for the handle-leak regression tests.
func (a *Allocator) Handles() int { return a.reg.Len() }

// home is this handle's slot at a level — the paper's "starting from
// scattered points" refinement. Multiplying the handle id by the 64-bit
// golden ratio and keeping the top level bits spreads any number of
// handles evenly across the level (the root level has one slot, 0).
func (h *Handle) home(level int) uint64 {
	return (h.id * 0x9E3779B97F4A7C15) >> uint(64-level)
}

// rel returns node n's slot at its level counted from this handle's home,
// i.e. its position in the handle's cyclic scan order of the level.
func (h *Handle) rel(n uint64, level int) uint32 {
	return uint32((n - h.home(level)) & (geometry.LevelWidth(level) - 1))
}

// start returns the node where this handle's next scan of a level begins:
// its home advanced by the level's rover, or the level's first node
// without scatter (ablation A2), which ignores the rover.
func (h *Handle) start(level int) uint64 {
	base := geometry.FirstOfLevel(level)
	if !h.a.scatter {
		return base
	}
	return base + (h.home(level)+uint64(h.rover[level]))&(base-1)
}

// Alloc is the paper's NBALLOC (Algorithm 1). It identifies the target
// level for the request, then scans that level for a free node from this
// handle's roving start, wrapping around once.
func (h *Handle) Alloc(size uint64) (uint64, bool) {
	geo := h.a.geo
	if size > geo.MaxSize {
		h.stats.AllocFails++
		return 0, false
	}
	level := geo.LevelForSize(size)
	base := geometry.FirstOfLevel(level)
	end := base << 1 // one past the last node of the level
	start := h.start(level)

	// Scan [start, end) and then wrap to [base, start): two linear passes
	// keep the subtree-skip arithmetic identical to the paper's.
	n, got, _ := h.scan(level, start, end, 1)
	if got == 0 {
		n, got, _ = h.scan(level, base, start, 1)
	}
	if got == 0 {
		h.stats.AllocFails++
		return 0, false
	}
	return geo.OffsetOf(n), true
}

// scan walks the nodes [i, hi) of a level and reserves the first free
// node it can with tryAlloc, together with up to want-1 more of the same
// bunch (see tryAlloc). It returns the first node reserved, the group as a
// bitmask (bit j set: node n+j reserved; 0 when none was) and the node
// after the last one reserved, where it also leaves the level's rover.
// When it reserves none, next is the node where the walk stopped, which a
// word step or a subtree skip may have carried past hi.
//
// The walk is a SWAR pass: one load of a word answers every node the word
// covers at this level, and the first node whose covered fields have no
// Busy bit is the candidate. Transient coalescing bits do not disqualify
// a node, as in the paper's IsFree (the reservation CAS inside tryAlloc
// still requires them clear). It runs over the lanes the nodes cover
// (node<<shift) in two stages: status.FirstFreeRun probes the word the
// walk starts in, which may start mid-word (so does the word after a
// subtree skip), and when that word has no candidate status.NextRun
// walks the rest of the range in whole words, with the probe reduced to
// the level's node width and a constant step between loads. When
// tryAlloc fails because of an occupied ancestor the walk skips the whole
// subtree of the conflicting node (lines A18-A19) before probing further.
func (h *Handle) scan(level int, i, hi uint64, want int) (n uint64, got uint, next uint64) {
	a := h.a
	m := a.levels[level]
	count := 1 << m.shift
	lane, end := i<<m.shift, hi<<m.shift
	for lane < end {
		w := a.words[m.off+lane>>3].Load()
		f := status.FirstFreeRun(w, int(lane&7), count)
		if f == status.LanesPerWord {
			// No candidate from lane on in this word: the rest of the
			// range is whole words, which the walker runs through.
			lane, w = status.NextRun(a.words, m.off, lane&^7+status.LanesPerWord, end, m.shift)
		} else {
			lane = lane&^7 + uint64(f)
		}
		if lane >= end {
			break
		}
		cand := lane >> m.shift
		failedAt, got := h.tryAlloc(cand, w, hi, want)
		if failedAt == 0 {
			last := cand
			for g := got; g != 0; g &= g - 1 {
				last = cand + uint64(bits.TrailingZeros(g))
				a.setHead(last)
			}
			h.stats.Allocs += uint64(bits.OnesCount(got))
			h.rover[level] = h.rel(last+1, level)
			return cand, got, last + 1
		}
		// The allocation lost to a chunk reserved at failedAt: every
		// descendant of failedAt at this level is equally taken, so jump
		// past the whole subtree.
		h.stats.Retries++
		d := uint64(1) << uint(level-geometry.LevelOf(failedAt))
		lane = max((failedAt+1)*d, cand+1) << m.shift
	}
	return 0, 0, lane >> m.shift
}

// setHead records node n, just reserved by this handle, in the index
// entry of its chunk's head. The store is plain under both disciplines:
// this handle is the entry's only writer until it delivers the chunk, and
// every later reader reaches the offset through a happens-before edge,
// the tree CAS a later releaser or allocator synchronizes with or the
// caller's hand-off of the offset (DESIGN.md, "The chunk-head index").
func (a *Allocator) setHead(n uint64) {
	*(*uint32)(unsafe.Pointer(&a.index[a.headSlot(a.geo.OffsetOf(n))])) = uint32(n)
}

// tryAlloc is the paper's TRYALLOC (Algorithm 2), one bunch at a time. It
// reserves node n and, in the same CAS, the group of free nodes that
// follow it (see group; want = 1 reserves n alone). It then propagates
// partial occupancy to the max level once for all of them, since a
// bunch's nodes share every ancestor: one materialized level per step,
// clearing the branch's coalescing bit so racing releases notice the
// branch was reused. It returns 0 and the group as a bitmask (bit j: node
// n+j), or the index of the conflicting node after rolling back its own
// updates through freeNode. scanned is the caller's already-loaded value
// of n's word, seeding the first reservation attempt so the hot path
// issues no redundant atomic load.
func (h *Handle) tryAlloc(n, scanned, hi uint64, want int) (failedAt uint64, got uint) {
	a := h.a
	nLevel := geometry.LevelOf(n)
	word, field, count, leafLevel := a.nodeWord(n)
	shift := uint(leafLevel - nLevel)
	// n's own fields are tested first, so a conflict on n alone still
	// costs the scan one node and not the subtree of an ancestor.
	own := status.Fill(field, count, status.Mask)
	if scanned&own != 0 {
		return n, 0
	}

	// Pre-check: an ancestor that already reads Occ would fail the climb
	// below after the reservation and every climb step had been written,
	// and the rollback would write them all again. One load per
	// materialized ancestor finds it first. This is a test before the CAS,
	// not a protocol step: the climb keeps its own Occ test.
	k := a.k
	cur := n << shift // climbs from n's first covered leaf
	for lam := leafLevel - k; lam >= a.top; lam -= k {
		anc := cur >> uint(k)
		ancWord, ancField := a.wordOf(anc, lam)
		if ancWord.Load()&status.ShiftToLane(status.Occ, ancField) != 0 {
			return anc, 0
		}
		cur = anc
	}

	// Reserve n: all covered leaf fields must be exactly clear (as in the
	// 1-level CAS from 0 to BUSY: pending coalescing bits also fail the
	// reservation); a CAS lost purely to traffic on sibling fields of the
	// word is retried, since the covered fields are re-validated, and so is
	// the rest of the group.
	occupy := status.Fill(field, count, status.Busy)
	for w := scanned; ; w = word.Load() {
		if w&own != 0 {
			return n, 0
		}
		to := w | occupy
		got = 1
		if want > 1 {
			to, got = a.group(n, hi, want, w, to)
		}
		if h.cas(word, w, to) {
			break
		}
	}

	// Climb. Interior bunch ancestors of the group derive their state from
	// the fields just set; explicit updates happen at each materialized
	// level above the bunch, down to the one that covers MaxLevel.
	cur = n << shift
	for lam := leafLevel - k; lam >= a.top; lam -= k {
		child := cur >> uint(k-1)
		anc := child >> 1
		ancWord, ancField := a.wordOf(anc, lam)
		occ := status.ShiftToLane(status.Occ, ancField)
		coal := status.ShiftToLane(status.CoalBit(child), ancField)
		mark := status.ShiftToLane(status.Mark(0, child), ancField)
		for {
			w := ancWord.Load()
			if w&occ != 0 {
				// A fully reserved ancestor: this chunk cannot be
				// fragmented. Roll back the climb (which has updated
				// materialized levels (lam, leafLevel-k]) and the group's
				// reservations, then report the conflict.
				for g := got; g != 0; g &= g - 1 {
					h.freeNode(n+uint64(bits.TrailingZeros(g)), lam+k)
				}
				return anc, 0
			}
			// A word whose branch is already marked occupied and not
			// coalescing is left unwritten: the load is then the witness a
			// CAS from w to w would have returned, as in freeNode's
			// phase-1 skip (DESIGN.md, "Memory ordering of sub-word CAS").
			if to := w&^coal | mark; to == w || h.cas(ancWord, w, to) {
				break
			}
			// A concurrent operation changed this node's other bits or a
			// sibling lane; the marking is still coherent, so re-read and
			// retry the step.
		}
		cur = anc
	}
	return 0, got
}

// group extends the reservation to of node n, computed from n's word w,
// to the free nodes of n's level that follow n in its bunch (in the top
// bunch, in its word) and lie below hi, up to want nodes in all, and
// returns it with the group as a bitmask (bit j: node n+j). A node joins
// only if its covered fields are exactly clear in w, the test n itself
// passed, so the one CAS of to does what reserving the group's nodes one
// by one with no interleaving would.
func (a *Allocator) group(n, hi uint64, want int, w, to uint64) (uint64, uint) {
	m := a.levels[geometry.LevelOf(n)]
	count := 1 << m.shift
	field := int(n<<m.shift) & 7
	span := a.bunchLanes
	if m.lam == a.top {
		span = status.LanesPerWord
	}
	end := field&^(span-1) + span
	if rest := (hi - n) << m.shift; rest < uint64(end-field) {
		end = field + int(rest) // a level narrower than its word ends inside it
	}
	got := uint(1)
	for f, taken := field+count, 1; taken < want && f < end; f += count {
		if w&status.Fill(f, count, status.Mask) == 0 {
			to |= status.Fill(f, count, status.Busy)
			got |= 1 << (uint(f-field) >> m.shift)
			taken++
		}
	}
	return to, got
}

// Free is the paper's NBFREE (Algorithm 3): it recovers the node that
// served the offset from index[] and releases it all the way up to the
// level covering MaxLevel. A node below the rover of its level rewinds
// the rover to it, so this handle's next scan of the level starts there
// (the tryAlloc rollback goes through freeNode and leaves it). Freeing an
// offset that is not currently delivered (a double free or a foreign
// pointer) panics, mirroring the abort-on-misuse convention of production
// allocators.
func (h *Handle) Free(offset uint64) {
	a := h.a
	if a.outside(offset) {
		misuse(offset, false)
	}
	n := uint64(h.swapIndex(a.headSlot(offset), 0))
	if n == 0 {
		misuse(offset, true)
	}
	h.freeNode(n, a.top)
	h.stats.Frees++
	l := geometry.LevelOf(n)
	if r := h.rel(n, l); r < h.rover[l] {
		h.rover[l] = r
	}
}

// outside reports whether offset lies outside the managed region or off
// the allocation-unit grid, where no chunk head can be.
func (a *Allocator) outside(offset uint64) bool {
	return offset >= a.geo.Total || offset&(a.geo.MinSize-1) != 0
}

// misuse panics for the release of an offset that is not a delivered
// chunk head: one outside the region or unaligned, or one whose index
// entry was already 0 (swapped).
func misuse(offset uint64, swapped bool) {
	reason := "offset outside the managed region or unaligned"
	if swapped {
		reason = "offset not currently allocated (double free?)"
	}
	panic(fmt.Sprintf("bunch: Free(%#x): %s", offset, reason))
}

// freeNode is the paper's FREENODE (Algorithm 3). It releases node n,
// propagating through materialized levels down to ubLam (the bunch-leaf
// level the release must reach). For a real free ubLam covers MaxLevel;
// for a tryAlloc rollback it is the level just below the conflict point.
// Phase 1 leaves n's own bunch unless a derived buddy, one of the nodes
// interior to the bunch that pair with n's branch, is occupied and not
// coalescing, because the merge cannot proceed past a fragmented buddy
// (paper Figure 4). Those buddies are derived from one load of n's word.
func (h *Handle) freeNode(n uint64, ubLam int) {
	a := h.a
	nLevel := geometry.LevelOf(n)
	word, field, count, leafLevel := a.nodeWord(n)
	// Only a node covering less than its whole bunch has derived buddies
	// (never at k = 1).
	climb := leafLevel-a.k >= ubLam &&
		(count == a.bunchLanes || !derivedArrest(word.Load(), field, count, a.bunchLanes))
	h.release(word, n<<uint(leafLevel-nLevel), leafLevel, ubLam, status.FieldMask(field, count), climb)
}

// release runs FREENODE's three phases for the fields clear of word, which
// lie in the bunch of materialized level leafLevel that holds lane first.
// climb is phase 1's verdict on that bunch's derived buddies, which the
// caller draws: freeNode for one node, releaseGroup for a batch's group.
func (h *Handle) release(word *atomic.Uint64, first uint64, leafLevel, ubLam int, clear uint64, climb bool) {
	a := h.a
	// Phase 1: mark the climb path as coalescing so racing operations know
	// a release is in flight (lines F2-F18). The climb is arrested at a
	// node whose other branch is occupied (and not itself coalescing). The
	// buddies at the levels interior to each bunch above the first are
	// derived from the witnessed word, and the buddy at the explicit step
	// is read from the ancestor's own field.
	k, lanes := a.k, a.bunchLanes
	cur, low, lowCount := first, uint64(0), lanes
	for lam := leafLevel - k; climb && lam >= ubLam; lam -= k {
		if lowCount < lanes && derivedArrest(low, int(cur&7), lowCount, lanes) {
			break
		}
		child := cur >> uint(k-1)
		anc := child >> 1
		ancWord, ancField := a.wordOf(anc, lam)
		// Setting one coalescing bit would be a natural atomic Or — but
		// the value-returning atomic.Uint64.Or/And intrinsics miscompile
		// this climb shape on go1.24.0/amd64 (a register holding a live
		// pointer gets clobbered; reproduced standalone), so the mark
		// stays a CAS loop. Skipping the RMW when the bit is already set
		// is safe: the loaded word is then exactly the witness an Or would
		// have returned.
		coal := status.ShiftToLane(status.CoalBit(child), ancField)
		var witnessed uint64
		for {
			w := ancWord.Load()
			witnessed = w
			if w&coal != 0 || h.cas(ancWord, w, w|coal) {
				break
			}
		}
		wf := status.Field(witnessed, ancField)
		if status.IsOccBuddy(wf, child) && !status.IsCoalBuddy(wf, child) {
			break
		}
		// The next iteration's derived checks look at the word we just
		// left the mark in, from the ancestor's field upward.
		cur, low, lowCount = anc, witnessed, 1
	}

	// Phase 2: release the fields (line F19). The paper's plain store
	// becomes a CAS loop because sibling lanes of the word may be mutating
	// concurrently and must not be clobbered. (An atomic And would do it in
	// one guaranteed RMW, but see the intrinsic caveat in phase 1.) Under
	// the lock it is the plain store again.
	var afterRelease uint64
	for {
		w := word.Load()
		afterRelease = w &^ clear
		if h.cas(word, w, afterRelease) {
			break
		}
	}

	// Phase 3: propagate the release towards the upper bound.
	if leafLevel > ubLam { // else the fields are at the destination level: no climb happened
		h.unmark(first, leafLevel, ubLam, afterRelease)
	}
}

// unmark is the paper's UNMARK (Algorithm 4): climb from the bunch-leaf
// level leafLevel of a just-released node (first is its first covered
// leaf, low the word after its release) towards ubLam, clearing the
// occupancy and coalescing bits of the branch being left. Climbing one
// materialized step asserts that the whole subtree under the ancestor's
// child branch is free, which is exactly "the bunch just left holds no
// busy field": that one test answers every per-level buddy check in
// between. The coalescing bit in the ancestor's field protects the step
// against racing allocations, which clear it when they reuse the branch;
// found already cleared, it means a concurrent operation took the branch
// over and the climb stops.
func (h *Handle) unmark(first uint64, leafLevel, ubLam int, low uint64) {
	a := h.a
	k, lanes := a.k, a.bunchLanes
	cur := first
	for lam := leafLevel - k; lam >= ubLam; lam -= k {
		if status.AnyBusy(low, int(cur&7)&^(lanes-1), lanes) {
			return
		}
		child := cur >> uint(k-1)
		anc := child >> 1
		ancWord, ancField := a.wordOf(anc, lam)
		coal := status.ShiftToLane(status.CoalBit(child), ancField)
		branch := coal | status.ShiftToLane(status.Mark(0, child), ancField)
		var updated uint64
		for {
			w := ancWord.Load()
			if w&coal == 0 {
				return
			}
			updated = w &^ branch
			if h.cas(ancWord, w, updated) {
				break
			}
		}
		cur, low = anc, updated
	}
}

// derivedArrest walks the within-bunch buddy tree from the fields
// [j,j+count) towards the bunch root (a bunch spans lanes fields) and
// reports whether some derived buddy is occupied while not coalescing —
// the condition that arrests a release climb at a materialized level,
// answered here for the derived levels without touching memory.
func derivedArrest(w uint64, j, count, lanes int) bool {
	for count < lanes {
		buddy := j ^ count
		busy := w&status.Fill(buddy, count, status.Busy) != 0
		coal := w&status.Fill(buddy, count, status.CoalLeft|status.CoalRight) != 0
		if busy && !coal {
			return true
		}
		count <<= 1
		j &^= count - 1
	}
	return false
}
