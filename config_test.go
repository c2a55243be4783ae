package nbbs_test

import (
	"strings"
	"testing"

	nbbs "repro"
)

// TestConfigImplications pins how New reads a Config: which layers each
// field selects (the composed stack label encodes the full chain, leaf
// included) and the implication rules — an empty Variant is Variant4Lvl,
// and Elastic or Backing.Mapped bring in one routed instance unless
// Backing.Instances already asks for more.
func TestConfigImplications(t *testing.T) {
	cases := []struct {
		name      string
		cfg       nbbs.Config
		label     string
		instances int
		layers    string // of multi, elastic, slab, mapped, telemetry
	}{
		{name: "bare", cfg: cfg,
			label: "4lvl-nb", instances: 1},
		{name: "variant", cfg: with(func(c *nbbs.Config) { c.Variant = nbbs.Variant1Lvl }),
			label: "1lvl-nb", instances: 1},
		{name: "instances", cfg: with(func(c *nbbs.Config) { c.Backing.Instances = 4 }),
			label: "multi[4x 4lvl-nb]", instances: 4,
			layers: "multi"},
		{name: "elastic-implies-instances", cfg: with(func(c *nbbs.Config) {
			c.Elastic = &nbbs.ElasticConfig{MaxInstances: 4}
		}),
			label: "elastic+multi[1x 4lvl-nb]", instances: 1,
			layers: "multi elastic"},
		{name: "mapped-implies-instances", cfg: with(func(c *nbbs.Config) { c.Backing.Mapped = true }),
			label: "mapped+multi[1x 4lvl-nb]", instances: 1,
			layers: "multi mapped"},
		{name: "mapped-elastic", cfg: with(func(c *nbbs.Config) {
			c.Backing.Mapped = true
			c.Elastic = &nbbs.ElasticConfig{MaxInstances: 4}
		}),
			label: "elastic+mapped+multi[1x 4lvl-nb]", instances: 1,
			layers: "multi elastic mapped"},
		{name: "explicit-instances-kept", cfg: with(func(c *nbbs.Config) {
			c.Backing.Instances = 3
			c.Backing.Mapped = true
			c.Elastic = &nbbs.ElasticConfig{MaxInstances: 4}
		}),
			label: "elastic+mapped+multi[3x 4lvl-nb]", instances: 3,
			layers: "multi elastic mapped"},
		{name: "frontend-depot-slab", cfg: with(func(c *nbbs.Config) {
			c.Frontend = nbbs.FrontendConfig{Depot: true, Slab: true}
		}),
			label: "slab+depot+4lvl-nb", instances: 1,
			layers: "slab"},
		{name: "telemetry", cfg: with(func(c *nbbs.Config) { c.Telemetry = true }),
			label: "4lvl-nb", instances: 1,
			layers: "telemetry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := nbbs.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Name(); got != tc.label {
				t.Errorf("stack label %q, want %q", got, tc.label)
			}
			if got := b.Instances(); got != tc.instances {
				t.Errorf("Instances = %d, want %d", got, tc.instances)
			}
			var layers []string
			for _, l := range []struct {
				name    string
				present bool
			}{
				{"multi", b.Multi() != nil}, {"elastic", b.Elastic() != nil}, {"slab", b.Slab() != nil},
				{"mapped", b.Mapped()}, {"telemetry", b.Telemetry() != nil},
			} {
				if l.present {
					layers = append(layers, l.name)
				}
			}
			if got := strings.Join(layers, " "); got != tc.layers {
				t.Errorf("layers = %q, want %q", got, tc.layers)
			}
			h := b.NewHandle()
			off, ok := h.Alloc(128)
			if !ok {
				t.Fatal("alloc failed")
			}
			h.Free(off)
		})
	}
}
