package nbbs_test

import (
	"slices"
	"sync"
	"testing"

	nbbs "repro"
)

var cfg = nbbs.Config{Total: 1 << 20, MinSize: 64, MaxSize: 1 << 16}

// with returns the shared geometry with the given stack fields set.
func with(edit func(*nbbs.Config)) nbbs.Config {
	c := cfg
	edit(&c)
	return c
}

func TestVariantsAvailable(t *testing.T) {
	want := []string{
		nbbs.Variant1Lvl, nbbs.Variant4Lvl,
		nbbs.Variant1LvlLocked, nbbs.Variant4LvlLocked,
		nbbs.VariantCloudwu, nbbs.VariantLinuxStyle,
	}
	have := map[string]bool{}
	for _, v := range nbbs.Variants() {
		have[v] = true
	}
	for _, v := range want {
		if !have[v] {
			t.Errorf("variant %q not registered", v)
		}
	}
}

// TestVariantsClosedList pins the registry: the six leaves plus the
// composite labels, which every by-name harness (nbbsstress -all, the
// conformance, differential and workload suites) enumerates.
func TestVariantsClosedList(t *testing.T) {
	want := []string{
		"1lvl-nb", "1lvl-sl", "4lvl-nb", "4lvl-sl", "buddy-sl",
		"elastic+multi+4lvl-nb", "linux-buddy",
		"mapped+elastic+multi+4lvl-nb", "multi4+4lvl-nb",
		"slab+4lvl-nb", "slab+depot+multi4+4lvl-nb",
		"slab+mapped+elastic+multi+4lvl-nb",
	}
	if got := nbbs.Variants(); !slices.Equal(got, want) {
		t.Fatalf("Variants() = %q, want %q", got, want)
	}
}

func TestDefaultVariant(t *testing.T) {
	b, err := nbbs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Variant() != nbbs.Variant4Lvl {
		t.Fatalf("default variant = %q", b.Variant())
	}
	if b.Total() != cfg.Total || b.MinSize() != cfg.MinSize || b.MaxSize() != cfg.MaxSize {
		t.Fatal("geometry accessors diverge from config")
	}
}

func TestEveryVariantAllocates(t *testing.T) {
	for _, v := range nbbs.Variants() {
		v := v
		t.Run(v, func(t *testing.T) {
			b, err := nbbs.New(with(func(c *nbbs.Config) { c.Variant = v }))
			if err != nil {
				t.Fatal(err)
			}
			off, ok := b.Alloc(100)
			if !ok {
				t.Fatal("alloc failed")
			}
			if got := b.ChunkSize(off); got != 128 {
				t.Fatalf("ChunkSize = %d, want 128 (100 rounded up)", got)
			}
			b.Free(off)
		})
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := nbbs.New(nbbs.Config{Total: 1000, MinSize: 8, MaxSize: 64}); err == nil {
		t.Error("non-power-of-two total accepted")
	}
	if _, err := nbbs.New(with(func(c *nbbs.Config) { c.Variant = "no-such" })); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestMaterializedBytes(t *testing.T) {
	b, err := nbbs.New(with(func(c *nbbs.Config) { c.Backing.Mapped = true }))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Mapped() {
		t.Fatal("region not mapped")
	}
	buf, off, ok := b.AllocBytes(100)
	if !ok {
		t.Fatal("AllocBytes failed")
	}
	if len(buf) != 128 {
		t.Fatalf("AllocBytes window = %d bytes, want the 128-byte chunk", len(buf))
	}
	buf[0], buf[127] = 0xAB, 0xCD
	again := b.Bytes(off)
	if again[0] != 0xAB || again[127] != 0xCD {
		t.Fatal("Bytes window does not alias the allocation")
	}
	b.Free(off)
}

func TestBytesWithoutMaterialization(t *testing.T) {
	b, err := nbbs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, ok := b.Alloc(64)
	if !ok {
		t.Fatal("alloc failed")
	}
	defer b.Free(off)
	defer func() {
		if recover() == nil {
			t.Error("Bytes on an offset-only instance did not panic")
		}
	}()
	b.Bytes(off)
}

func TestHandlesConcurrent(t *testing.T) {
	b, err := nbbs.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := b.NewHandle()
			for i := 0; i < 10000; i++ {
				if off, ok := h.Alloc(256); ok {
					h.Free(off)
				}
			}
		}()
	}
	wg.Wait()
	s := b.Stats()
	if s.Allocs != s.Frees || s.Allocs == 0 {
		t.Fatalf("stats = %d allocs / %d frees", s.Allocs, s.Frees)
	}
}

func TestScrubSupport(t *testing.T) {
	for v, want := range map[nbbs.Variant]bool{
		nbbs.Variant1Lvl:       true,
		nbbs.Variant4Lvl:       true,
		nbbs.Variant1LvlLocked: true,
		nbbs.Variant4LvlLocked: true,
		nbbs.VariantCloudwu:    false,
	} {
		b, err := nbbs.New(with(func(c *nbbs.Config) { c.Variant = v }))
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Scrub(); got != want {
			t.Errorf("Scrub() on %s = %v, want %v", v, got, want)
		}
	}
}

// TestDepotHandleCaches: on a Frontend.Depot stack NewHandle returns the
// caching handle — a freed chunk parks in its magazine and serves the
// next allocation of its class, and Flush hands every parked chunk back.
func TestDepotHandleCaches(t *testing.T) {
	b, err := nbbs.New(with(func(c *nbbs.Config) { c.Frontend.Depot = true }))
	if err != nil {
		t.Fatal(err)
	}
	h := b.NewHandle().(interface {
		nbbs.Handle
		Flush()
		CacheStats() nbbs.CacheStats
	})
	off, ok := h.Alloc(512)
	if !ok {
		t.Fatal("alloc failed")
	}
	h.Free(off)
	off2, ok := h.Alloc(512)
	if !ok || off2 != off {
		t.Fatalf("magazine miss: got %d, want parked %d", off2, off)
	}
	if cs := h.CacheStats(); cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", cs)
	}
	h.Free(off2)
	h.Flush()
	layers := b.LayerStats()
	if s := layers[len(layers)-1].Stats; s.Allocs != s.Frees {
		t.Fatalf("back-end leaked: %d/%d", s.Allocs, s.Frees)
	}
}

func TestMulti(t *testing.T) {
	m, err := nbbs.New(with(func(c *nbbs.Config) { c.Backing.Instances = 3 }))
	if err != nil {
		t.Fatal(err)
	}
	if m.Instances() != 3 || m.Total() != 3*cfg.Total {
		t.Fatalf("Instances/Total = %d/%d", m.Instances(), m.Total())
	}
	h := m.NewHandle()
	off, ok := h.Alloc(4096)
	if !ok {
		t.Fatal("alloc failed")
	}
	if inst := m.InstanceOf(off); inst < 0 || inst > 2 {
		t.Fatalf("InstanceOf = %d", inst)
	}
	if got := m.ChunkSize(off); got != 4096 {
		t.Fatalf("ChunkSize through the router = %d, want 4096", got)
	}
	h.Free(off)
	pinned := m.Multi().NewHandleOn(2)
	off2, ok := pinned.Alloc(64)
	if !ok || m.InstanceOf(off2) != 2 {
		t.Fatalf("pinned handle landed on instance %d", m.InstanceOf(off2))
	}
	pinned.Free(off2)
}

// TestElasticFacade drives the elastic capacity manager through the
// public API: explicit Polls grow the fleet under pressure and retire it
// back to the floor once drained.
func TestElasticFacade(t *testing.T) {
	b, err := nbbs.New(with(func(c *nbbs.Config) {
		c.Backing.Instances = 1
		c.Elastic = &nbbs.ElasticConfig{MinInstances: 1, MaxInstances: 3}
	}))
	if err != nil {
		t.Fatal(err)
	}
	mgr := b.Elastic()
	if mgr == nil {
		t.Fatal("Elastic() = nil on an elastic stack")
	}
	if b.Instances() != 1 {
		t.Fatalf("initial Instances = %d", b.Instances())
	}
	// Fill past the high watermark, poll twice (the watermark rule's
	// hysteresis), and the fleet grows; the new window widens Total.
	h := b.NewHandle()
	var live []uint64
	for mgr.Utilization() < 0.8 {
		off, ok := h.Alloc(cfg.MaxSize)
		if !ok {
			t.Fatal("alloc failed below capacity")
		}
		live = append(live, off)
	}
	mgr.Poll()
	mgr.Poll()
	if b.Instances() != 2 {
		t.Fatalf("Instances after pressured poll = %d, want 2", b.Instances())
	}
	if b.Total() != 2*cfg.Total {
		t.Fatalf("Total after grow = %d, want %d", b.Total(), 2*cfg.Total)
	}
	// Drain and poll the fleet back to the floor.
	for _, off := range live {
		h.Free(off)
	}
	for i := 0; i < 4 && b.Instances() > 1; i++ {
		mgr.Poll()
	}
	if b.Instances() != 1 {
		t.Fatalf("Instances after drained polls = %d, want the floor 1", b.Instances())
	}
	if c := mgr.Counters(); c.Grows == 0 || c.Retires == 0 {
		t.Fatalf("lifecycle counters: %+v", c)
	}
}

// TestMaterializedMulti exercises byte views over a multi-instance
// router: one mapped window per instance behind the global offset space.
func TestMaterializedMulti(t *testing.T) {
	m, err := nbbs.New(with(func(c *nbbs.Config) {
		c.Backing = nbbs.BackingConfig{Instances: 2, Mapped: true}
	}))
	if err != nil {
		t.Fatalf("mapped multi rejected: %v", err)
	}
	if !m.Mapped() {
		t.Fatal("not mapped")
	}
	// Pin a handle to instance 1 so the global offset exceeds the
	// per-instance span, proving Bytes routes across windows.
	h := m.Multi().NewHandleOn(1)
	off, ok := h.Alloc(128)
	if !ok {
		t.Fatal("alloc failed")
	}
	if off < cfg.Total {
		t.Fatalf("pinned alloc offset %d inside instance 0's window", off)
	}
	buf := m.Bytes(off)
	if len(buf) != 128 {
		t.Fatalf("window = %d bytes, want 128", len(buf))
	}
	buf[0], buf[127] = 0xEE, 0xFF
	again := m.Bytes(off)
	if again[0] != 0xEE || again[127] != 0xFF {
		t.Fatal("window does not alias the instance's window")
	}
	h.Free(off)
	// An offset at or past the span has no window behind it.
	for _, bad := range []uint64{m.Total(), m.Total() + 128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bytes(%#x) outside the %d-byte span did not panic", bad, m.Total())
				}
			}()
			m.Bytes(bad)
		}()
	}
}

// TestComposedStackEndToEnd drives the full production composition the
// paper's conclusions call for: caching front-end + 4-instance router +
// mapped region, end to end through AllocBytes.
func TestComposedStackEndToEnd(t *testing.T) {
	b, err := nbbs.New(with(func(c *nbbs.Config) {
		c.Backing = nbbs.BackingConfig{Instances: 4, Mapped: true}
		c.Frontend = nbbs.FrontendConfig{Depot: true}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "depot+mapped+multi[4x 4lvl-nb]" {
		t.Fatalf("Name = %q", b.Name())
	}
	if b.Total() != 4*cfg.Total {
		t.Fatalf("Total = %d, want global span %d", b.Total(), 4*cfg.Total)
	}
	buf, off, ok := b.AllocBytes(100)
	if !ok {
		t.Fatal("AllocBytes through the stack failed")
	}
	if len(buf) != 128 {
		t.Fatalf("window = %d bytes, want 128", len(buf))
	}
	buf[0] = 0xAB
	if b.Bytes(off)[0] != 0xAB {
		t.Fatal("window does not alias the mapped region")
	}
	b.Free(off)

	// Concurrent caching handles through the full stack.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := b.NewHandle()
			for i := 0; i < 3000; i++ {
				if off, ok := h.Alloc(256); ok {
					b.Bytes(off)[0] = 1
					h.Free(off)
				}
			}
		}()
	}
	wg.Wait()
	if !b.Scrub() { // flush magazines, scrub leaves
		t.Fatal("non-blocking leaves should scrub")
	}
	layers := b.LayerStats()
	if len(layers) != 3 { // depot, multi, leaf fleet
		t.Fatalf("LayerStats = %d entries, want 3", len(layers))
	}
	if layers[0].Layer != "depot" {
		t.Fatalf("top layer = %q", layers[0].Layer)
	}
	front := layers[0].Stats
	if front.Allocs == 0 || front.Allocs != front.Frees {
		t.Fatalf("front-end layer stats = %d allocs / %d frees", front.Allocs, front.Frees)
	}
	if layers[0].Extra["hits"] == 0 {
		t.Fatal("magazines absorbed no traffic")
	}
	// After Scrub flushed the magazines, the back-end must balance too.
	back := layers[2].Stats
	if back.Allocs != back.Frees {
		t.Fatalf("back-end leaked: %d allocs vs %d frees", back.Allocs, back.Frees)
	}
}

// TestDepotStackEndToEnd drives the caching production composition
// through the facade: bulk alloc/free through the batched contract, a
// producer whose magazine refills in batches and a consumer whose
// magazine drains in batches, the front-end counters via LayerStats, and
// full reclamation on Scrub.
func TestDepotStackEndToEnd(t *testing.T) {
	b, err := nbbs.New(with(func(c *nbbs.Config) {
		c.Backing.Instances = 4
		c.Frontend = nbbs.FrontendConfig{Depot: true}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "depot+multi[4x 4lvl-nb]" {
		t.Fatalf("Name = %q", b.Name())
	}

	// Bulk contract through the whole stack.
	batch := b.AllocBatch(256, 100)
	if len(batch) != 100 {
		t.Fatalf("AllocBatch delivered %d chunks, want 100", len(batch))
	}
	seen := map[uint64]bool{}
	for _, off := range batch {
		if seen[off] {
			t.Fatalf("chunk %#x delivered twice", off)
		}
		seen[off] = true
		if got := b.ChunkSize(off); got != 256 {
			t.Fatalf("ChunkSize(%#x) = %d, want 256", off, got)
		}
	}
	b.FreeBatch(batch)

	// A producer/consumer pair across handles: the consumer frees what
	// the producer allocated, so one only refills and the other only
	// drains.
	producer, consumer := b.NewHandle(), b.NewHandle()
	ring := make(chan uint64, 256)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20000; i++ {
			if off, ok := producer.Alloc(256); ok {
				ring <- off
			}
		}
		close(ring)
	}()
	go func() {
		defer wg.Done()
		for off := range ring {
			consumer.Free(off)
		}
	}()
	wg.Wait()

	layers := b.LayerStats()
	if layers[0].Layer != "depot" {
		t.Fatalf("top layer = %q, want depot", layers[0].Layer)
	}
	fe := layers[0].Extra
	if fe["misses"] == 0 || fe["depot_batch_refills"] != fe["misses"] {
		t.Fatalf("front-end refills: misses %d, depot_batch_refills %d", fe["misses"], fe["depot_batch_refills"])
	}
	if fe["spills"] == 0 || fe["depot_drained_chunks"] != fe["spills"] {
		t.Fatalf("front-end drains: spills %d, depot_drained_chunks %d", fe["spills"], fe["depot_drained_chunks"])
	}
	// Every back-end free so far is the bulk FreeBatch or a drained chunk.
	if got := layers[2].Stats.Frees; got != uint64(len(batch))+fe["spills"] {
		t.Fatalf("back-end frees = %d, want %d batch + %d drained", got, len(batch), fe["spills"])
	}
	if !b.Scrub() {
		t.Fatal("non-blocking leaves should scrub")
	}
	back := b.LayerStats()[2].Stats
	if back.Allocs != back.Frees {
		t.Fatalf("back-end leaked: %d allocs vs %d frees", back.Allocs, back.Frees)
	}
}

func TestConfigGeometry(t *testing.T) {
	depth, maxLevel, err := cfg.Geometry()
	if err != nil {
		t.Fatal(err)
	}
	if depth != 14 || maxLevel != 4 {
		t.Fatalf("Geometry = depth %d maxLevel %d, want 14/4", depth, maxLevel)
	}
	if _, _, err := (nbbs.Config{Total: 3}).Geometry(); err == nil {
		t.Error("bad geometry accepted")
	}
}

// TestMappedMemoryFacade drives the mapped backing through the public
// API: Backing.Mapped + Elastic builds, byte views read the router's
// lifecycle-following region, the commit accounting is exposed, and a
// retire visibly decommits.
func TestMappedMemoryFacade(t *testing.T) {
	b, err := nbbs.New(with(func(c *nbbs.Config) {
		c.Backing = nbbs.BackingConfig{Instances: 2, Mapped: true}
		c.Elastic = &nbbs.ElasticConfig{MinInstances: 1, MaxInstances: 2}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Mapped() || b.Memory() == nil {
		t.Fatal("stack does not report its mapped backing")
	}
	ms, ok := b.MemStats()
	if !ok || ms.CommittedBytes != 2*cfg.Total {
		t.Fatalf("MemStats = %+v/%v, want both windows committed", ms, ok)
	}
	// Byte views work over the mapped region.
	buf, off, ok := b.AllocBytes(256)
	if !ok {
		t.Fatal("AllocBytes failed")
	}
	buf[0] = 0xEE
	if b.Bytes(off)[0] != 0xEE {
		t.Fatal("mapped window does not alias")
	}
	b.Free(off)
	// Two idle polls (the watermark rule's hysteresis) retire one instance
	// and decommit its window.
	b.Elastic().Poll()
	b.Elastic().Poll()
	if b.Instances() != 1 {
		t.Fatalf("Instances = %d after idle polls, want 1", b.Instances())
	}
	ms, _ = b.MemStats()
	if ms.CommittedBytes != cfg.Total || ms.Decommits != 1 {
		t.Fatalf("after retire: %+v, want one decommitted window", ms)
	}
	committed := 0
	for _, c := range b.Memory().CommitMap() {
		if c {
			committed++
		}
	}
	if committed != 1 {
		t.Fatalf("commit map shows %d committed windows, want 1", committed)
	}
}
