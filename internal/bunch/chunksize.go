package bunch

import (
	"fmt"

	"repro/internal/geometry"
)

// ChunkSize implements alloc.ChunkSizer: the reserved size of a delivered
// chunk is the size of the serving tree node recorded in index[].
func (a *Allocator) ChunkSize(offset uint64) uint64 {
	if offset >= a.geo.Total || offset&(a.geo.MinSize-1) != 0 {
		panic(fmt.Sprintf("bunch: ChunkSize(%#x): offset outside the managed region or unaligned", offset))
	}
	n := a.index[a.headSlot(offset)].Load()
	if n == 0 {
		panic(fmt.Sprintf("bunch: ChunkSize(%#x): offset not currently allocated", offset))
	}
	return a.geo.SizeOf(uint64(n))
}

// FreeBytes returns an estimate of the currently allocatable memory: the
// managed total minus the reserved sizes of all live chunks. Like Stats,
// it is meaningful at quiescent points.
func (a *Allocator) FreeBytes() uint64 {
	used := uint64(0)
	for slot := range a.index {
		if n := a.index[slot].Load(); n != 0 {
			used += a.geo.SizeOf(uint64(n))
		}
	}
	return a.geo.Total - used
}

// OccupancyByLevel reports, for each tree level, how many nodes currently
// serve an allocation (quiescent diagnostic).
func (a *Allocator) OccupancyByLevel() []int {
	counts := make([]int, a.geo.Depth+1)
	for slot := range a.index {
		if n := a.index[slot].Load(); n != 0 {
			counts[geometry.LevelOf(uint64(n))]++
		}
	}
	return counts
}
