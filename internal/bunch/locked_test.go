package bunch

import (
	"testing"
	"time"

	"repro/internal/alloc"
)

// TestLockedMisuseReleasesLock pins that an SL critical section releases
// its spin-lock when the operation panics on misuse: after each recovered
// double free, foreign free and ChunkSize of a freed chunk, through a
// handle and through the allocator's own face, an Alloc on another
// goroutine must complete.
func TestLockedMisuseReleasesLock(t *testing.T) {
	for _, label := range []string{"1lvl-sl", "4lvl-sl"} {
		a := mustBuild(t, label, alloc.Config{Total: 1 << 12, MinSize: 8, MaxSize: 1 << 12})
		h := a.NewHandle()
		off, ok := h.Alloc(64)
		if !ok {
			t.Fatalf("%s: Alloc failed", label)
		}
		h.Free(off)
		chunkSize := a.(alloc.ChunkSizer).ChunkSize
		for _, m := range []struct {
			name   string
			misuse func()
		}{
			{"handle double free", func() { h.Free(off) }},
			{"double free", func() { a.Free(off) }},
			{"handle foreign free", func() { h.Free(off + 8) }},
			{"foreign free", func() { a.Free(off + 8) }},
			{"ChunkSize of a freed chunk", func() { chunkSize(off) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", label, m.name)
					}
				}()
				m.misuse()
			}()
			done := make(chan struct{})
			go func() {
				if o, ok := a.Alloc(8); ok {
					a.Free(o)
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: %s left the lock held", label, m.name)
			}
		}
	}
}
