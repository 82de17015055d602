// Command bench is the repository's one benchmark (see README.md in this
// directory and BENCHMARK.json at the root). It drives the public library
// API, an in-process nucleusd and an in-process router + durable primary +
// replica from outside, with a seeded closed-loop load generator, and
// prints the end-to-end metrics of one workload — or, with --trace 1, the
// per-layer metrics of the traced pass — as one JSON object on the last
// line of standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// sizes are the input sizes and round counts of the four scripts.
type sizes struct {
	coreScale   int // lib_core: RMAT scale
	nucComms    int // lib_nucleus: planted communities of 80 vertices
	serveComms  int // serve_query: planted communities of 80 vertices
	fleetScale  int // fleet_mutate: RMAT scale of one block
	fleetDegree int // fleet_mutate: RMAT edge factor of one block
	fleetBlocks int // fleet_mutate: disjoint RMAT blocks in the graph
	// fleetWarmBatches go straight to the first primary, before it is
	// killed: they are the WAL its recovery replays.
	fleetWarmBatches int
	warm             map[string]int // warm-up rounds, part of set-up
}

func (s sizes) warmRounds(workload string) int { return s.warm[workload] }

// committed are the sizes of the committed baseline, chosen on a 2-core
// sandbox so that every set-up does over a second of work, every slotted
// op's p50 sits between 1 ms and 500 ms, and the 30 s of BENCHMARK.json's
// run_seconds hold well over 100 rounds.
var committed = sizes{
	coreScale:        14,
	nucComms:         12,
	serveComms:       48,
	fleetScale:       12,
	fleetDegree:      4,
	fleetBlocks:      8,
	fleetWarmBatches: 6,
	warm:             map[string]int{"lib_core": 7, "lib_nucleus": 7, "serve_query": 4, "fleet_mutate": 2},
}

// result is the one line the driver reads.
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

func newResult(out *outcome, defs []metricDef) (result, error) {
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		v, ok := out.metrics[def.Name]
		if !ok {
			return res, fmt.Errorf("run produced no %s", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	return res, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of lib_core, lib_nucleus, serve_query, fleet_mutate")
	seed := fs.Int64("seed", 1, "seeds graph generation and the request scripts")
	seconds := fs.Float64("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the per-module traced pass instead and prints the per-layer metrics")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "trace.json"), "where the traced pass writes its spans")
	compare := fs.Bool("compare", false, "compare two sets of runs: bench -compare A.json B.json")
	runs := fs.Int("runs", 0, "run every workload this many times, seeds counting up from -seed, and write the set to -out")
	outPath := fs.String("out", "", "file -runs writes its set of runs to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two files of runs")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *runs > 0 {
		if *outPath == "" {
			return errors.New("-runs wants -out")
		}
		return runSet(*runs, *seed, *seconds, *outPath)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}

	p := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(p)
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		threads:  p,
		size:     committed,
		setups:   3,
		dataDir:  filepath.Join(".bench_build", "data"),
	}
	if _, err := newWorkload(cfg); err != nil {
		return err
	}
	var out *outcome
	var err error
	defs := endToEnd
	if *trace != 0 {
		defs = perLayer
		out, err = runTraced(cfg, *traceOut)
	} else {
		out, err = runEndToEnd(cfg)
	}
	if err != nil {
		return err
	}
	res, err := newResult(out, defs)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
