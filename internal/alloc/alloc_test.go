package alloc

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/geometry"
)

type fakeAllocator struct{ name string }

func (f *fakeAllocator) Name() string                { return f.name }
func (f *fakeAllocator) Geometry() geometry.Geometry { return geometry.Geometry{} }
func (f *fakeAllocator) Alloc(uint64) (uint64, bool) { return 0, false }
func (f *fakeAllocator) Free(uint64)                 {}
func (f *fakeAllocator) NewHandle() Handle           { return nil }
func (f *fakeAllocator) Stats() Stats                { return Stats{} }

// registrations numbers the names the registry tests register: the
// registry is process-global, so a fixed name would make every run after
// the first one of `go test -count=N` a duplicate registration.
var registrations int

func uniqueName(prefix string) string {
	registrations++
	return fmt.Sprintf("%s-%d", prefix, registrations)
}

func TestRegistry(t *testing.T) {
	name := uniqueName("test-fake")
	Register(name, func(cfg Config) (Allocator, error) {
		return &fakeAllocator{name: name}, nil
	})
	a, err := Build(name, Config{})
	if err != nil || a.Name() != name {
		t.Fatalf("Build = %v, %v", a, err)
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Error("registered name missing from Names()")
	}
}

func TestBuildUnknown(t *testing.T) {
	_, err := Build("no-such-allocator", Config{})
	if err == nil || !strings.Contains(err.Error(), "unknown allocator") {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	name := uniqueName("test-dup")
	Register(name, func(Config) (Allocator, error) { return nil, nil })
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(name, func(Config) (Allocator, error) { return nil, nil })
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Allocs: 1, Frees: 2, AllocFails: 3, RMW: 4, CASFail: 5, Retries: 6, LockAcq: 7}
	b := Stats{Allocs: 10, Frees: 20, AllocFails: 30, RMW: 40, CASFail: 50, Retries: 60, LockAcq: 70}
	a.Add(b)
	want := Stats{Allocs: 11, Frees: 22, AllocFails: 33, RMW: 44, CASFail: 55, Retries: 66, LockAcq: 77}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
	if a.OpsTotal() != 33 {
		t.Fatalf("OpsTotal = %d, want 33", a.OpsTotal())
	}
}

type fakeSpanner struct{ fakeAllocator }

func (f *fakeSpanner) OffsetSpan() uint64 { return 1 << 30 }

func TestSpanOf(t *testing.T) {
	plain := &fakeAllocator{name: "plain"}
	if got := SpanOf(plain); got != 0 { // fake geometry is zero
		t.Fatalf("SpanOf(plain) = %d, want Geometry().Total", got)
	}
	if got := SpanOf(&fakeSpanner{}); got != 1<<30 {
		t.Fatalf("SpanOf(spanner) = %d, want 1<<30", got)
	}
}

type fakeLayered struct{ fakeAllocator }

func (f *fakeLayered) LayerStats() []LayerStats {
	return []LayerStats{{Layer: "outer"}, {Layer: "inner"}}
}

func TestStackStats(t *testing.T) {
	if got := StackStats(&fakeAllocator{name: "leaf"}); len(got) != 1 || got[0].Layer != "leaf" {
		t.Fatalf("StackStats(leaf) = %+v", got)
	}
	if got := StackStats(&fakeLayered{}); len(got) != 2 || got[0].Layer != "outer" {
		t.Fatalf("StackStats(layered) = %+v", got)
	}
}

// sizedFake is a leaf that reports chunk sizes, so a Layer can wrap it.
type sizedFake struct{ fakeAllocator }

func (f *sizedFake) ChunkSize(uint64) uint64 { return 64 }

type innerLayer struct{ Layer }
type outerLayer struct{ Layer }

func TestFindWalksUnwrap(t *testing.T) {
	leaf := &sizedFake{fakeAllocator{name: "leaf"}}
	base, err := NewLayer(leaf)
	if err != nil {
		t.Fatal(err)
	}
	in := &innerLayer{base}
	if base, err = NewLayer(in); err != nil {
		t.Fatal(err)
	}
	out := &outerLayer{base}
	if got := Find[*outerLayer](out); got != out {
		t.Errorf("Find outer = %p, want the top %p", got, out)
	}
	if got := Find[*innerLayer](out); got != in {
		t.Errorf("Find inner = %p, want %p", got, in)
	}
	if got := Find[*sizedFake](out); got != leaf {
		t.Errorf("Find leaf = %p, want %p", got, leaf)
	}
	if got := Find[*outerLayer](in); got != nil {
		t.Errorf("Find found %p above the walk's start", got)
	}
	if got := Find[*innerLayer](leaf); got != nil {
		t.Errorf("Find found %p below a leaf", got)
	}
	if _, err := NewLayer(&fakeAllocator{name: "plain"}); err == nil {
		t.Error("NewLayer wrapped an allocator that cannot report chunk sizes")
	}
}
