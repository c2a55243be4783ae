package stack

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/frontend"
	"repro/internal/slab"
	"repro/internal/telemetry"

	_ "repro/internal/bunch"
)

// TestCompositeLabelsBuildGoldenStacks pins what every registered
// composite label builds — the stack's display name, global span, routed
// instance count and elastic fleet bounds — to the values the
// hand-written registration closures produced before the label parser
// replaced them. MaxSize is half of the small total, so the 1 MiB rows
// exercise the instance-halving rule.
func TestCompositeLabelsBuildGoldenStacks(t *testing.T) {
	type golden struct {
		name      string
		instances int // 0 = no router
		min, max  int // elastic fleet bounds (0 = no manager)
	}
	// Per label: the stack at Total = 1 MiB, then at 16 MiB.
	want := map[string][2]golden{
		"multi4+4lvl-nb": {
			{name: "multi[2x 4lvl-nb]", instances: 2},
			{name: "multi[4x 4lvl-nb]", instances: 4}},
		"slab+4lvl-nb": {
			{name: "slab+4lvl-nb"},
			{name: "slab+4lvl-nb"}},
		"slab+depot+multi4+4lvl-nb": {
			{name: "slab+depot+multi[2x 4lvl-nb]", instances: 2},
			{name: "slab+depot+multi[4x 4lvl-nb]", instances: 4}},
		"slab+mapped+elastic+multi+4lvl-nb": {
			{name: "slab+elastic+mapped+multi[2x 4lvl-nb]", instances: 2, min: 1, max: 4},
			{name: "slab+elastic+mapped+multi[4x 4lvl-nb]", instances: 4, min: 1, max: 8}},
		"elastic+multi+4lvl-nb": {
			{name: "elastic+multi[2x 4lvl-nb]", instances: 2, min: 1, max: 4},
			{name: "elastic+multi[4x 4lvl-nb]", instances: 4, min: 1, max: 8}},
		"mapped+elastic+multi+4lvl-nb": {
			{name: "elastic+mapped+multi[2x 4lvl-nb]", instances: 2, min: 1, max: 4},
			{name: "elastic+mapped+multi[4x 4lvl-nb]", instances: 4, min: 1, max: 8}},
	}
	if len(want) != len(composites) {
		t.Fatalf("golden table has %d labels, the registry list %d", len(want), len(composites))
	}
	for _, label := range composites {
		for i, total := range []uint64{1 << 20, 16 << 20} {
			t.Run(fmt.Sprintf("%s/%dMiB", label, total>>20), func(t *testing.T) {
				w, ok := want[label]
				if !ok {
					t.Fatal("registered label has no golden row")
				}
				s, err := specFor(label, alloc.Config{Total: total, MinSize: 64, MaxSize: 1 << 19})
				if err != nil {
					t.Fatal(err)
				}
				st, err := Build(s)
				if err != nil {
					t.Fatal(err)
				}
				got := golden{name: st.Top.Name()}
				if st.Multi != nil {
					got.instances = st.Multi.Instances()
				}
				if st.Elastic != nil {
					c := st.Elastic.Config()
					got.min, got.max = c.MinInstances, c.MaxInstances
				}
				if got != w[i] {
					t.Errorf("built %+v, want %+v", got, w[i])
				}
				if span := alloc.SpanOf(st.Top); span != total {
					t.Errorf("global span %d, want %d", span, total)
				}
				// The registry serves the same stack under the same label.
				a, err := alloc.Build(label, alloc.Config{Total: total, MinSize: 64, MaxSize: 1 << 19})
				if err != nil {
					t.Fatal(err)
				}
				if a.Name() != w[i].name {
					t.Errorf("alloc.Build(%q) built %q, want %q", label, a.Name(), w[i].name)
				}
			})
		}
	}
}

// TestLabelGrammarRejects covers the labels the closed list must never
// contain: each fails in specFor, or — for a missing or unregistered
// leaf — when Build looks the leaf up in the registry.
func TestLabelGrammarRejects(t *testing.T) {
	cfg := alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16}
	for _, tc := range []struct{ why, label string }{
		{"unknown token", "turbo+multi4+4lvl-nb"},
		{"malformed instance count", "multi0+4lvl-nb"},
		{"duplicate token", "slab+slab+4lvl-nb"},
		{"cached token removed", "cached+4lvl-nb"},
		{"cached token removed", "cached+multi4+4lvl-nb"},
		{"out of order", "multi4+depot+4lvl-nb"},
		{"mapped without multi", "mapped+4lvl-nb"},
		{"elastic without multi", "elastic+4lvl-nb"},
		{"predictive policy removed", "predictive+mapped+elastic+multi+4lvl-nb"},
		{"missing leaf", "depot+multi4"},
		{"unregistered leaf", "depot+no-such-leaf"},
		{"empty label", ""},
	} {
		s, err := specFor(tc.label, cfg)
		if err == nil {
			_, err = Build(s)
		}
		if err == nil {
			t.Errorf("%s: label %q built a stack", tc.why, tc.label)
		}
	}
}

// TestLayersForwardTheContract walks every registered composite, and a
// telemetry-probed stack, down its Unwrap chain: every wrapping layer
// must carry the whole composable contract at the stack's global span,
// and alloc.Find must find exactly the layers the label names.
func TestLayersForwardTheContract(t *testing.T) {
	cfg := alloc.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16}
	specs := map[string]Spec{
		"probed+slab+depot+mapped+elastic+multi2+4lvl-nb": {
			Variant: "4lvl-nb", Per: cfg, Instances: 2, Mapped: true,
			Elastic: &elastic.Config{MinInstances: 1, MaxInstances: 4},
			Depot:   true, Slab: true,
			Telemetry: telemetry.New(),
		},
	}
	for _, label := range composites {
		s, err := specFor(label, cfg)
		if err != nil {
			t.Fatal(err)
		}
		specs[label] = s
	}
	for label, s := range specs {
		t.Run(label, func(t *testing.T) {
			st, err := Build(s)
			if err != nil {
				t.Fatal(err)
			}
			span := alloc.SpanOf(st.Top)
			for a := st.Top; ; {
				if got := alloc.SpanOf(a); got != span {
					t.Errorf("%T spans %d, the top %d", a, got, span)
				}
				u, ok := a.(interface{ Unwrap() alloc.Allocator })
				if !ok {
					break
				}
				_, sizer := a.(alloc.ChunkSizer)
				_, spanner := a.(alloc.Spanner)
				_, scrubber := a.(alloc.Scrubber)
				_, statser := a.(alloc.LayerStatser)
				_, batcher := a.(alloc.BatchAllocator)
				if !sizer || !spanner || !scrubber || !statser || !batcher {
					t.Errorf("%T: ChunkSizer %v, Spanner %v, Scrubber %v, LayerStatser %v, BatchAllocator %v",
						a, sizer, spanner, scrubber, statser, batcher)
				}
				a = u.Unwrap()
			}
			if got := alloc.Find[*slab.Allocator](st.Top); got != st.Slab || (got != nil) != strings.Contains(label, "slab+") {
				t.Errorf("Find slab = %p, built %p", got, st.Slab)
			}
			if got := alloc.Find[*frontend.Allocator](st.Top); got != st.Frontend || (got != nil) != strings.Contains(label, "depot+") {
				t.Errorf("Find front-end = %p, built %p", got, st.Frontend)
			}
			if got := alloc.Find[*elastic.Manager](st.Top); got != st.Elastic || (got != nil) != strings.Contains(label, "elastic+") {
				t.Errorf("Find elastic = %p, built %p", got, st.Elastic)
			}
		})
	}
}
