package main

import (
	"fmt"

	nbbs "repro"
	"repro/internal/alloc"
	"repro/internal/elastic"
	"repro/internal/frontend"
	"repro/internal/mem"
	"repro/internal/multi"
	"repro/internal/slab"
)

// stackSpec is one workload's stack configuration. Both the nbbs.New
// config (the stack every end-to-end figure is measured on) and the hand
// composition of the traced run derive from it, so the two cannot drift.
type stackSpec struct {
	total, minSize, maxSize uint64 // per-instance geometry
	instances               int    // 0 = bare leaf
	slab, depot, mapped     bool
	fixedRouting            bool // every handle prefers instance 0 (default: round-robin)
	elastic                 *nbbs.ElasticConfig
}

func (s stackSpec) routing() multi.Policy {
	if s.fixedRouting {
		return multi.Fixed
	}
	return multi.RoundRobin
}

func (s stackSpec) config() nbbs.Config {
	return nbbs.Config{
		Total: s.total, MinSize: s.minSize, MaxSize: s.maxSize,
		Variant:  nbbs.Variant4Lvl,
		Backing:  nbbs.BackingConfig{Instances: s.instances, Mapped: s.mapped, Routing: s.routing()},
		Elastic:  s.elastic,
		Frontend: nbbs.FrontendConfig{Slab: s.slab, Depot: s.depot},
	}
}

// stackUnderTest is what the load generator needs from a stack; *nbbs.Buddy
// and the hand-composed traced stack both provide it.
type stackUnderTest interface {
	Name() string
	NewHandle() alloc.Handle
	ChunkSize(offset uint64) uint64
	MaxSize() uint64
	Total() uint64
	LayerStats() []alloc.LayerStats
	Scrub() bool
	Elastic() *elastic.Manager
	MemStats() (mem.Stats, bool)
}

// composed is the traced run's stack: the layers' public constructors
// called in stack.Build's order, with wrap applied at every boundary.
type composed struct {
	top alloc.Allocator
	mgr *elastic.Manager
	mem *mem.Region
}

// wrapFunc interposes on the allocator that serves the named boundary
// (the layer below it); the identity leaves the stack exactly as
// stack.Build would build it.
type wrapFunc func(layer layerID, a alloc.Allocator) alloc.Allocator

func noWrap(_ layerID, a alloc.Allocator) alloc.Allocator { return a }

// compose builds spec by hand over the named leaf variant.
func compose(s stackSpec, leaf string, wrap wrapFunc) (*composed, error) {
	per := alloc.Config{Total: s.total, MinSize: s.minSize, MaxSize: s.maxSize}
	c := &composed{}
	if s.instances < 1 {
		a, err := alloc.Build(leaf, per)
		if err != nil {
			return nil, err
		}
		c.top = a
		return c, nil
	}
	m, err := multi.New(leaf, s.instances, per, s.routing())
	if err != nil {
		return nil, err
	}
	if s.mapped {
		r, err := mem.New(m.InstanceSpan(), m.Slots())
		if err != nil {
			return nil, fmt.Errorf("reserving mapped backing: %w", err)
		}
		if err := m.BindMemory(r); err != nil {
			return nil, fmt.Errorf("binding mapped backing: %w", err)
		}
		c.mem = r
	}
	c.top = m
	if s.elastic != nil {
		// elastic.New takes *multi.Multi, so no shim fits between the two:
		// they share the "multi" boundary and are told apart by counters.
		if c.mgr, err = elastic.New(m, *s.elastic); err != nil {
			return nil, err
		}
		c.top = c.mgr
	}
	c.top = wrap(layerMulti, c.top)
	if s.depot {
		fe, err := frontend.New(c.top, 0, frontend.WithDepot(0))
		if err != nil {
			return nil, err
		}
		if c.mgr != nil {
			c.mgr.OnDrainRange(fe.DrainDepotRange)
		}
		c.top = wrap(layerFrontend, fe)
	}
	if s.slab {
		sl, err := slab.New(c.top, 0)
		if err != nil {
			return nil, err
		}
		if c.mgr != nil {
			c.mgr.OnDrainRange(sl.DrainRange)
		}
		c.top = wrap(layerSlab, sl)
	}
	return c, nil
}

func (c *composed) Name() string                   { return c.top.Name() }
func (c *composed) NewHandle() alloc.Handle        { return c.top.NewHandle() }
func (c *composed) ChunkSize(off uint64) uint64    { return c.top.(alloc.ChunkSizer).ChunkSize(off) }
func (c *composed) MaxSize() uint64                { return c.top.Geometry().MaxSize }
func (c *composed) Total() uint64                  { return alloc.SpanOf(c.top) }
func (c *composed) LayerStats() []alloc.LayerStats { return alloc.StackStats(c.top) }
func (c *composed) Elastic() *elastic.Manager      { return c.mgr }

func (c *composed) Scrub() bool {
	s, ok := c.top.(alloc.Scrubber)
	if ok {
		s.Scrub()
	}
	return ok
}

func (c *composed) MemStats() (mem.Stats, bool) {
	if c.mem == nil {
		return mem.Stats{}, false
	}
	return c.mem.Stats(), true
}
