package telemetry

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
)

// Event is one flight-recorder entry. Step is a logical timestamp — the
// ring's publish counter, not a clock — so a replayed chaos run
// publishes the identical sequence and two same-seed runs compare equal
// (replay safety; see DESIGN.md "Observability"). A and B are
// event-specific operands (a slot index, a chunk count, a fault site's
// call ordinal — whatever the source finds useful).
type Event struct {
	Step   uint64 `json:"step"`
	Source string `json:"source"`
	Event  string `json:"event"`
	A      uint64 `json:"a,omitempty"`
	B      uint64 `json:"b,omitempty"`
}

// Ring is the flight recorder: one fixed-size, overwrite-oldest buffer
// behind one mutex. Events are rare by construction (lifecycle
// transitions, faults, refill/spill/drain crossings — never per-op), so
// a mutexed write is cheap. The step is taken under the same mutex, so
// the buffer is always in step order and eviction drops the globally
// oldest event.
type Ring struct {
	mu   sync.Mutex
	step uint64
	buf  []Event
}

func newRing(size int) *Ring {
	return &Ring{buf: make([]Event, size)}
}

// Publish appends an event, overwriting the oldest entry when the ring
// is full.
func (r *Ring) Publish(source, event string, a, b uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.step%uint64(len(r.buf))] = Event{Step: r.step + 1, Source: source, Event: event, A: a, B: b}
	r.step++
	r.mu.Unlock()
}

// Published returns the total number of events ever published,
// including those the ring has since overwritten.
func (r *Ring) Published() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.step
}

// Events returns the retained events in logical-step order. The ring is
// read under its mutex, so the dump happens-after every publish it
// includes.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	if r.step <= size {
		return slices.Clone(r.buf[:r.step])
	}
	next := r.step % size
	return slices.Concat(r.buf[next:], r.buf[:next])
}

// DumpJSON writes the retained events as a JSON array.
func (r *Ring) DumpJSON(w io.Writer) error {
	events := r.Events()
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(events)
}
