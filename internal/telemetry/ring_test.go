package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestRingOverwriteOldest pins the eviction contract: a full ring drops the oldest entries, keeps the newest, and Published
// still counts everything ever written.
func TestRingOverwriteOldest(t *testing.T) {
	r := newRing(4)
	for i := uint64(1); i <= 10; i++ {
		r.Publish("src", "ev", i, 0)
	}
	if got := r.Published(); got != 10 {
		t.Fatalf("Published = %d, want 10", got)
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(7 + i); e.Step != want || e.A != want {
			t.Fatalf("event %d = %+v, want step/a %d (oldest four overwritten)", i, e, want)
		}
	}
}

// TestRingUnderfilled: a ring that never wrapped returns exactly what
// was published, in step order.
func TestRingUnderfilled(t *testing.T) {
	r := newRing(8)
	r.Publish("a", "x", 1, 2)
	r.Publish("b", "y", 3, 4)
	ev := r.Events()
	if len(ev) != 2 || ev[0].Source != "a" || ev[1].Source != "b" || ev[0].Step != 1 || ev[1].Step != 2 {
		t.Fatalf("got %+v", ev)
	}
}

// TestRingConcurrentPublish hammers the ring from 8 goroutines under the
// race detector; afterwards the retained steps are unique and sorted, and
// Published equals the total written.
func TestRingConcurrentPublish(t *testing.T) {
	r := newRing(1024)
	const workers = 8
	const per = 5000
	publishConcurrently(r, workers, per)
	if got := r.Published(); got != workers*per {
		t.Fatalf("Published = %d, want %d", got, workers*per)
	}
	ev := r.Events()
	seen := map[uint64]bool{}
	for i, e := range ev {
		if i > 0 && ev[i-1].Step >= e.Step {
			t.Fatalf("events not in strictly increasing step order at %d", i)
		}
		if seen[e.Step] {
			t.Fatalf("duplicate step %d", e.Step)
		}
		seen[e.Step] = true
	}
}

// TestRingKeepsNewestEvents: after concurrent publishers overrun the
// ring, it holds exactly the newest events overall — steps
// Published()-N+1 through Published() for capacity N — whichever
// goroutine published them.
func TestRingKeepsNewestEvents(t *testing.T) {
	const size = 1024
	r := newRing(size)
	publishConcurrently(r, 8, 5000)
	ev := r.Events()
	if len(ev) != size {
		t.Fatalf("retained %d events, want %d", len(ev), size)
	}
	first := r.Published() - size + 1
	for i, e := range ev {
		if want := first + uint64(i); e.Step != want {
			t.Fatalf("event %d has step %d, want %d (the newest %d of %d)", i, e.Step, want, size, r.Published())
		}
	}
}

// publishConcurrently has each of workers goroutines publish per events
// into r and waits for all of them.
func publishConcurrently(r *Ring, workers, per int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Publish("w", "ev", uint64(w), uint64(i))
			}
		}(w)
	}
	wg.Wait()
}

// TestRingDumpJSON round-trips the dump and pins the empty-ring shape
// to a JSON array (not null) — the contract incident files rely on.
func TestRingDumpJSON(t *testing.T) {
	r := newRing(4)
	var buf bytes.Buffer
	if err := r.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := bytes.TrimSpace(buf.Bytes()); string(got) != "[]" {
		t.Fatalf("empty dump = %q, want []", got)
	}
	r.Publish("elastic", "retire", 3, 0)
	buf.Reset()
	if err := r.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Event
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != (Event{Step: 1, Source: "elastic", Event: "retire", A: 3}) {
		t.Fatalf("round-trip = %+v", back)
	}
}

// TestRingNil: a nil ring is the disabled state — every method is a
// no-op, which is what lets event sources publish unconditionally.
func TestRingNil(t *testing.T) {
	var r *Ring
	r.Publish("x", "y", 0, 0)
	if r.Published() != 0 || r.Events() != nil {
		t.Fatal("nil ring must be inert")
	}
}
