// Command nbbstrace records allocator operation traces and replays them:
//
//	nbbstrace record -out ops.trace -ops 100000       # record a random schedule
//	nbbstrace replay -in ops.trace -variant 4lvl-nb    # re-execute on any variant
//	nbbstrace bench  -in ops.trace                     # replay on every variant, timed
//
// A trace captures the logical schedule (sizes and alloc/free pairing,
// not raw offsets), so a trace recorded once replays meaningfully across
// all allocator variants — the deterministic-regression workflow for
// placement bugs.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/alloc"
	"repro/internal/trace"

	_ "repro/internal/bunch"
	_ "repro/internal/cloudwu"
	_ "repro/internal/linuxbuddy"
	_ "repro/internal/slbuddy"
	_ "repro/internal/stack"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "record":
		record(args)
	case "replay":
		replay(args)
	case "bench":
		benchAll(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nbbstrace record|replay|bench [flags]")
	os.Exit(2)
}

func instanceFlags(fs *flag.FlagSet) func() alloc.Config {
	total := fs.Uint64("total", 1<<24, "managed bytes")
	minSize := fs.Uint64("min", 8, "allocation unit")
	maxSize := fs.Uint64("max", 1<<14, "maximum request size")
	return func() alloc.Config {
		return alloc.Config{Total: *total, MinSize: *minSize, MaxSize: *maxSize}
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "ops.trace", "output trace file")
	ops := fs.Int("ops", 100000, "operations to record")
	seed := fs.Int64("seed", 1, "schedule seed")
	variant := fs.String("variant", "1lvl-nb", "allocator to record against")
	cfg := instanceFlags(fs)
	fs.Parse(args)

	a, err := alloc.Build(*variant, cfg())
	if err != nil {
		fatal(err)
	}
	tr := &trace.Trace{}
	r := trace.NewRecorder(tr, 0, a.NewHandle())
	rng := rand.New(rand.NewSource(*seed))
	var live []uint64
	for i := 0; i < *ops; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			r.Free(live[k])
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		if off, ok := r.Alloc(uint64(8) << rng.Intn(11)); ok {
			live = append(live, off)
		}
	}
	for _, off := range live {
		r.Free(off)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d ops to %s\n", len(tr.Ops), *out)
}

func load(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	return tr
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "ops.trace", "input trace file")
	variant := fs.String("variant", "4lvl-nb", "allocator to replay on")
	cfg := instanceFlags(fs)
	fs.Parse(args)

	tr := load(*in)
	a, err := alloc.Build(*variant, cfg())
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	ok, err := trace.Replay(tr, a)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replayed %d ops on %s in %v (%d allocations succeeded)\n",
		len(tr.Ops), *variant, time.Since(start).Round(time.Microsecond), ok)
}

func benchAll(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	in := fs.String("in", "ops.trace", "input trace file")
	reps := fs.Int("reps", 3, "repetitions per variant (best reported)")
	cfg := instanceFlags(fs)
	fs.Parse(args)

	tr := load(*in)
	for _, variant := range alloc.Names() {
		best := time.Duration(1<<62 - 1)
		var succeeded int
		for r := 0; r < *reps; r++ {
			a, err := alloc.Build(variant, cfg())
			if err != nil {
				fatal(err)
			}
			start := time.Now()
			ok, err := trace.Replay(tr, a)
			if err != nil {
				fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			succeeded = ok
		}
		perOp := best / time.Duration(len(tr.Ops))
		fmt.Printf("%-12s %10v total  %8v/op  (%d allocs succeeded)\n", variant, best.Round(time.Microsecond), perOp, succeeded)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbbstrace:", err)
	os.Exit(1)
}
