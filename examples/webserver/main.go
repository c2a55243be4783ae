// Webserver: a Larson-style server simulation on the public API — the
// workload class the paper motivates with long-running servers whose
// memory is allocated by one thread and released by another.
//
// A pool of worker goroutines serves simulated requests: each request
// allocates a response buffer of a size drawn from a realistic mix,
// parks it in a shared connection table, and releases whatever buffer the
// displaced connection held — usually one allocated by a different worker.
// The allocator is a composed layer stack (the paper's front-end /
// back-end composition: Frontend.Depot and optionally
// Backing.Instances): every NewHandle is a caching handle, so most requests
// never touch the back-end at all; the run reports each layer's share of
// the traffic.
//
// Telemetry is always on — the server demonstrates the observability
// story end to end: sampled latency percentiles per layer boundary are
// printed at the end, and with -metrics the same registry is served live
// over HTTP as Prometheus text (/metrics) and expvar (/debug/vars):
//
//	webserver -metrics :9100 -duration 30s &
//	curl -s localhost:9100/metrics | grep nbbs_latency_p99
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	nbbs "repro"
)

func main() {
	var (
		workers   = flag.Int("workers", 8, "concurrent request-serving goroutines")
		duration  = flag.Duration("duration", 2*time.Second, "simulation length")
		conns     = flag.Int("conns", 2048, "simultaneous connections (shared table slots)")
		variant   = flag.String("variant", nbbs.Variant4Lvl, "allocator variant")
		instances = flag.Int("instances", 1, "back-end instances (NUMA-style router)")
		metrics   = flag.String("metrics", "", `serve Prometheus text (/metrics) and expvar (/debug/vars) on this address during the run, e.g. ":9100"; empty = no listener`)
	)
	flag.Parse()

	cfg := nbbs.Config{
		Total:     64 << 20,
		MinSize:   64,
		MaxSize:   64 << 10,
		Variant:   *variant,
		Frontend:  nbbs.FrontendConfig{Depot: true},
		Telemetry: true,
	}
	if *instances > 1 {
		cfg.Backing.Instances = *instances
	}
	b, err := nbbs.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *metrics != "" {
		reg := b.Telemetry()
		reg.PublishExpvar("nbbs")
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/debug/vars", expvar.Handler())
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics: http://%s/metrics (Prometheus text), /debug/vars (expvar)\n", ln.Addr())
		go http.Serve(ln, mux)
	}

	// Response-size mix: mostly small API responses, some page-sized, the
	// occasional large asset. Values are rounded up by the buddy system.
	sizes := []uint64{200, 200, 200, 1500, 1500, 4 << 10, 16 << 10, 64 << 10}

	table := make([]atomic.Uint64, *conns) // 0 = empty, else offset+1
	var served atomic.Uint64
	deadline := time.Now().Add(*duration)

	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The stack has Frontend.Depot, so NewHandle is a caching
			// handle; the assertions below reach its magazine face.
			h := b.NewHandle().(interface {
				nbbs.Handle
				Flush()
				CacheStats() nbbs.CacheStats
			})
			defer h.Flush()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for time.Now().Before(deadline) {
				for k := 0; k < 128; k++ {
					size := sizes[rng.Intn(len(sizes))]
					var repl uint64
					if off, ok := h.Alloc(size); ok {
						repl = off + 1
					}
					slot := &table[rng.Intn(len(table))]
					if old := slot.Swap(repl); old != 0 {
						h.Free(old - 1) // often allocated by another worker
					}
					served.Add(1)
				}
			}
			cs := h.CacheStats()
			fmt.Printf("worker %d: %5.1f%% of allocations served from magazines (%d hits, %d misses, %d spills)\n",
				w, 100*float64(cs.Hits)/float64(cs.Hits+cs.Misses), cs.Hits, cs.Misses, cs.Spills)
		}()
	}
	wg.Wait()

	// Tear down live connections, then drain the chunks the workers'
	// magazines still hold so every layer below reconciles.
	for i := range table {
		if v := table[i].Swap(0); v != 0 {
			b.Free(v - 1)
		}
	}
	b.Scrub()
	fmt.Printf("\nserved %d requests in %v (%.0f req/s) on %s\n",
		served.Load(), *duration, float64(served.Load())/duration.Seconds(), b.Name())
	fmt.Printf("per-layer traffic (top-down):\n")
	for _, layer := range b.LayerStats() {
		fmt.Printf("  %-24s allocs=%-10d frees=%-10d extra=%v\n",
			layer.Layer, layer.Stats.Allocs, layer.Stats.Frees, layer.Extra)
	}
	fmt.Printf("latency percentiles (sampled, ns):\n")
	for _, ll := range b.Telemetry().Latencies() {
		for _, op := range ll.Ops {
			if op.Samples == 0 {
				continue
			}
			fmt.Printf("  %-12s %-12s samples=%-8d p50=%-6d p99=%-6d p999=%d\n",
				ll.Layer, op.Op, op.Samples, op.P50, op.P99, op.P999)
		}
	}
}
