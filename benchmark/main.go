// Command benchmark is the repository's performance benchmark: one
// command that generates a seeded workload, runs it against the real
// core.Service / shard.Store / strabon.Endpoint stack through their
// public functions, checks the outputs and prints every metric by name
// with its unit. README.md describes the workloads, the metrics and the
// rules that keep two runs of the same code within a few percent.
//
//	go run . -workload serve-cold -seed 3            (from this directory)
//	go run . -workload live-mixed -seed 3 -trace 1   (per-layer metrics)
//	go run . -selfcheck                              (derive the bounds)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/auxdata"
	"repro/internal/products"
	"repro/internal/seviri"
)

// inputs are the seed-determined inputs every stack of a run is built
// from.
type inputs struct {
	seed    int64
	pools   sitePools
	archive []*products.Product
}

func newInputs(seed int64) *inputs {
	pools := drawPools(auxdata.Generate(worldSeed))
	return &inputs{seed: seed, pools: pools, archive: archive(pools, seed)}
}

func (in *inputs) scenario(w *auxdata.World) *seviri.Scenario { return scenario(w, in.pools, in.seed) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name      = flag.String("workload", "", "archive-replay, serve-hot, serve-cold, live-mixed, or all")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>-<seed>.json")
		selfcheck = flag.Bool("selfcheck", false, "run every workload repeatedly in fresh processes, derive the bounds and write them into BENCHMARK.json")
	)
	// The driver passes -seconds; a run is a fixed list of operations,
	// not a timer, so the value changes nothing.
	flag.Int("seconds", 0, "accepted and ignored: the work of a run is fixed, see README.md")
	flag.Parse()
	runtime.GOMAXPROCS(maxProcs)

	switch {
	case *selfcheck:
		os.Exit(selfCheck())
	case *name == "all":
		os.Exit(runAll(*seed, *trace))
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		flag.Usage()
		os.Exit(2)
	}

	r := newRun(wl, *seed)
	fmt.Printf("benchmark: workload=%s seed=%d trace=%d GOMAXPROCS=%d NumCPU=%d closed loop\n",
		wl.name, *seed, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	set := endToEnd
	if *trace == 1 {
		set = perLayer
		r.traced()
	} else {
		r.measure()
	}
	os.Exit(r.print(os.Stdout, set))
}

// print writes the notes, every metric by name with its unit, and the
// result line; it returns the exit code.
func (r *run) print(w io.Writer, set []metric) int {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	res := result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		v, ok := r.values[m.name]
		if !ok {
			r.failed++
			res.Correct, res.Failed = false, r.failed
			fmt.Fprintf(w, "FAIL metric %s was not measured\n", m.name)
		}
		fmt.Fprintf(w, "%-32s %14.6f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	fmt.Fprintf(w, "attempted %d failed %d elapsed %.1fs\n", res.Attempted, res.Failed, time.Since(r.start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
