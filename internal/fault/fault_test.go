package fault_test

import (
	"encoding/json"
	"errors"
	"syscall"
	"testing"

	"repro/internal/fault"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *fault.Injector
	for _, s := range fault.Sites() {
		if err := in.Check(s); err != nil {
			t.Fatalf("nil injector injected at %s: %v", s, err)
		}
	}
	if in.Record() != nil || in.InjectedTotal() != 0 {
		t.Fatal("nil injector must report an empty record")
	}
}

func TestDeterministicTriggers(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule fault.Rule
		want []bool // outcome of calls 1..len(want): true = injected
	}{
		{"nth", fault.FailNth(fault.Commit, 3, syscall.ENOMEM), []bool{false, false, true, false, false}},
		{"always", fault.FailAlways(fault.Commit, syscall.ENOMEM), []bool{true, true, true}},
		{"range", fault.FailRange(fault.Commit, 2, 3, syscall.EAGAIN), []bool{false, true, true, false}},
		{"open-range", fault.FailRange(fault.Commit, 3, 0, syscall.EAGAIN), []bool{false, false, true, true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := fault.New(1, tc.rule)
			for i, want := range tc.want {
				err := in.Check(fault.Commit)
				if got := err != nil; got != want {
					t.Fatalf("call %d: injected=%v, want %v (err=%v)", i+1, got, want, err)
				}
				if want && !errors.Is(err, tc.rule.Err) {
					t.Fatalf("call %d: err = %v, want %v", i+1, err, tc.rule.Err)
				}
			}
			// Other sites are untouched by the schedule.
			if err := in.Check(fault.Decommit); err != nil {
				t.Fatalf("unscheduled site injected: %v", err)
			}
		})
	}
}

func TestProbabilisticIsSeedDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		in := fault.New(seed, fault.FailProb(fault.Decommit, 0.5, syscall.EAGAIN))
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Check(fault.Decommit) != nil
		}
		return out
	}
	a, b := run(7), run(7)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i+1)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("p=0.5 schedule injected %d/%d — not probabilistic", hits, len(a))
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical schedule")
	}
}

func TestRecordReplaysExactly(t *testing.T) {
	in := fault.New(42, fault.FailProb(fault.Commit, 0.3, syscall.ENOMEM),
		fault.FailProb(fault.Decommit, 0.3, syscall.EAGAIN))
	var first []bool
	for i := 0; i < 40; i++ {
		first = append(first, in.Check(fault.Commit) != nil, in.Check(fault.Decommit) != nil)
	}
	rec := in.Record()
	if len(rec) == 0 {
		t.Fatal("p=0.3 over 80 calls injected nothing")
	}

	// A JSON round trip (the incident-artifact format) must not change it.
	blob, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back []fault.Fault
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	rep := fault.Replay(back)
	var second []bool
	for i := 0; i < 40; i++ {
		second = append(second, rep.Check(fault.Commit) != nil, rep.Check(fault.Decommit) != nil)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at step %d", i)
		}
	}
	if got := rep.Record(); len(got) != len(rec) {
		t.Fatalf("replay recorded %d faults, original %d", len(got), len(rec))
	}
}

func TestPhasedScheduleKeepsOneRecord(t *testing.T) {
	in := fault.New(1, fault.FailNth(fault.Commit, 1, syscall.ENOMEM))
	if in.Check(fault.Commit) == nil {
		t.Fatal("phase 1 fault missing")
	}
	in.Clear()
	if in.Check(fault.Commit) != nil {
		t.Fatal("cleared injector still injects")
	}
	// Counting continued through the clear: the next rule sees call 3.
	in.Set(fault.FailNth(fault.Commit, 3, syscall.EAGAIN))
	if in.Check(fault.Commit) == nil {
		t.Fatal("phase 2 fault missing")
	}
	rec := in.Record()
	if len(rec) != 2 || rec[0].N != 1 || rec[1].N != 3 {
		t.Fatalf("spliced record = %v", rec)
	}
	if in.InjectedTotal() != 2 || in.Injected()[fault.Commit] != 2 || in.Calls()[fault.Commit] != 3 {
		t.Fatalf("counters: injected=%v calls=%v", in.Injected(), in.Calls())
	}
}

func TestDefaultError(t *testing.T) {
	in := fault.New(1, fault.FailAlways(fault.Commit, nil))
	if err := in.Check(fault.Commit); err == nil {
		t.Fatal("nil rule error must fall back to a generic injected error")
	}
}
