package trace_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/trace"

	_ "repro/internal/bunch"
)

func build(t *testing.T, variant string) alloc.Allocator {
	t.Helper()
	a, err := alloc.Build(variant, alloc.Config{Total: 1 << 16, MinSize: 64, MaxSize: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func record(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	a := build(t, "1lvl-nb")
	tr := &trace.Trace{}
	r := trace.NewRecorder(tr, 0, a.NewHandle())
	rng := rand.New(rand.NewSource(seed))
	var live []uint64
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			r.Free(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		if off, ok := r.Alloc(uint64(64 << rng.Intn(6))); ok {
			live = append(live, off)
		}
	}
	for _, off := range live {
		r.Free(off)
	}
	return tr
}

func TestRecordReplayOnSameVariant(t *testing.T) {
	tr := record(t, 7)
	got, err := trace.Replay(tr, build(t, "1lvl-nb"))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, op := range tr.Ops {
		if op.Ref < 0 && op.OK {
			want++
		}
	}
	if got != want {
		t.Fatalf("replay succeeded %d allocs, recording had %d", got, want)
	}
}

func TestReplayAcrossVariants(t *testing.T) {
	// A trace recorded on the 1-level allocator replays on the 4-level
	// one: same requests, same availability (single-threaded schedule).
	tr := record(t, 11)
	if _, err := trace.Replay(tr, build(t, "4lvl-nb")); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	tr := record(t, 13)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Ops) != len(tr.Ops) {
		t.Fatalf("roundtrip ops = %d, want %d", len(back.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if tr.Ops[i] != back.Ops[i] {
			t.Fatalf("op %d = %+v, want %+v", i, back.Ops[i], tr.Ops[i])
		}
	}
	// And the deserialized trace still replays.
	if _, err := trace.Replay(back, build(t, "1lvl-nb")); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := trace.Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := trace.Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReplayRejectsForwardRef(t *testing.T) {
	bad := &trace.Trace{Ops: []trace.Op{{Ref: 5}}}
	if _, err := trace.Replay(bad, build(t, "1lvl-nb")); err == nil {
		t.Fatal("forward free reference accepted")
	}
}

func TestRecorderForeignFreePanics(t *testing.T) {
	a := build(t, "1lvl-nb")
	tr := &trace.Trace{}
	r := trace.NewRecorder(tr, 0, a.NewHandle())
	defer func() {
		if recover() == nil {
			t.Fatal("foreign free did not panic")
		}
	}()
	r.Free(128)
}

// TestAllocatorLayerConcurrentRecording drives the allocator-level trace
// layer from several goroutines: appends must serialize safely and the
// recorded schedule must replay cleanly on a fresh instance.
func TestAllocatorLayerConcurrentRecording(t *testing.T) {
	tr := &trace.Trace{}
	layer, err := trace.NewAllocator(build(t, "1lvl-nb"), tr)
	if err != nil {
		t.Fatal(err)
	}
	if layer.Name() != "trace+1lvl-nb" {
		t.Fatalf("Name = %q", layer.Name())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := layer.NewHandle()
			var live []uint64
			for i := 0; i < 1000; i++ {
				if off, ok := h.Alloc(64 << (i % 3)); ok {
					live = append(live, off)
				}
				if len(live) > 8 {
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
	if len(tr.Ops) == 0 {
		t.Fatal("nothing recorded")
	}
	if _, err := trace.Replay(tr, build(t, "1lvl-nb")); err != nil {
		t.Fatalf("replay of concurrently recorded trace: %v", err)
	}
	workers := map[int32]bool{}
	for _, op := range tr.Ops {
		workers[op.Worker] = true
	}
	if len(workers) != 4 {
		t.Fatalf("trace names %d workers, want 4", len(workers))
	}
}

// TestAllocatorLayerForwardsContract checks the layer keeps the
// composable contract intact (ChunkSize, unrecorded convenience ops).
func TestAllocatorLayerForwardsContract(t *testing.T) {
	tr := &trace.Trace{}
	layer, err := trace.NewAllocator(build(t, "4lvl-nb"), tr)
	if err != nil {
		t.Fatal(err)
	}
	off, ok := layer.Alloc(100)
	if !ok {
		t.Fatal("alloc failed")
	}
	if got := layer.ChunkSize(off); got != 128 {
		t.Fatalf("ChunkSize = %d, want 128", got)
	}
	layer.Free(off)
	if len(tr.Ops) != 0 {
		t.Fatalf("convenience path recorded %d ops, want 0", len(tr.Ops))
	}
}
