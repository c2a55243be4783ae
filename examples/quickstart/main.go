// Quickstart: build a non-blocking buddy instance over a mapped memory
// region, allocate from several goroutines, write into the delivered
// chunks, and release everything. It exits non-zero when an allocation
// it relies on fails or a byte view panics.
package main

import (
	"fmt"
	"log"
	"sync"

	nbbs "repro"
)

func main() {
	// 16 MB region, 64-byte allocation units, up to 1 MB per request,
	// backed by mapped memory so we can use the chunks (Mapped builds the
	// leaf behind a 1-instance router that owns the region).
	b, err := nbbs.New(nbbs.Config{
		Total:   16 << 20,
		MinSize: 64,
		MaxSize: 1 << 20,
		Backing: nbbs.BackingConfig{Mapped: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("variant=%s total=%d min=%d max=%d\n", b.Variant(), b.Total(), b.MinSize(), b.MaxSize())

	// Single allocation: AllocBytes returns the chunk's memory window and
	// the offset, which is the token Free takes.
	buf, off, ok := b.AllocBytes(100) // rounds up to the 128-byte chunk
	if !ok {
		log.Fatal("allocation failed")
	}
	copy(buf, "hello, buddy")
	fmt.Printf("allocated %d bytes at offset %d: %q\n", len(buf), off, buf[:12])
	b.Free(off)

	// Concurrent allocations: one handle per goroutine is the hot-path
	// interface (it carries per-worker scan state and counters).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := b.NewHandle()
			var live []uint64
			for i := 0; i < 1000; i++ {
				size := uint64(64 << (i % 5)) // 64..1024 bytes
				if off, ok := h.Alloc(size); ok {
					// The chunk is exclusively ours until freed.
					chunk := b.Bytes(off)
					chunk[0] = byte(w)
					live = append(live, off)
				}
				if len(live) > 16 {
					h.Free(live[0])
					live = live[1:]
				}
			}
			for _, off := range live {
				h.Free(off)
			}
		}()
	}
	wg.Wait()

	s := b.Stats()
	fmt.Printf("completed: %d allocations, %d frees, %d atomic RMW (%.2f per op), %d CAS retries\n",
		s.Allocs, s.Frees, s.RMW, float64(s.RMW)/float64(s.Allocs+s.Frees), s.CASFail)
	whole, ok := b.Alloc(1 << 20)
	if !ok {
		log.Fatal("a max-size chunk is not allocatable after the full drain")
	}
	fmt.Printf("after full drain a max-size chunk is allocatable again (offset %d)\n", whole)
	b.Free(whole)
}
