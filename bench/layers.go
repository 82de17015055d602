package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// metricDef declares one metric as BENCHMARK.json lists it.
// TestManifestMatchesTables (smoke_test.go) holds the two tables below and
// that file to each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	Bound float64
}

// endToEnd is what a user of the system would see, with identical names on
// every workload. Latencies and mix_per_s are at the reference host speed
// (calib.go). A bound is three times the widest spread ten runs of one build
// showed on any workload (README.md, "Noise"): the driver wants a spread
// within the bound in every set of ten it runs, and the builder's contract
// a third of that in the sets run here. The timings spread by up to 7 %
// (the driver refused this benchmark once at a bound of 0.10, on two medians
// that sat between clusters and have been repaired since), the resident
// set by up to 5 %, setup_s — as measured, a second of cold work — by up to
// 21 %. There is no upper percentile among them: the p90s spread by up to
// 16 % and the p75s by up to 9 %; both are printed for people. The failure
// ratio is not in the table because a metric may never be 0 and this one
// must always be: it is the "failed" and "attempted" fields of the result
// line.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"mix_per_s", "1/s", "higher", 0.20},
	{"main_p50_ms", "ms", "lower", 0.20},
	{"alt_p50_ms", "ms", "lower", 0.20},
	{"aux_p50_ms", "ms", "lower", 0.20},
}

// perLayer is the traced pass's output: the p50 self time of every span
// name, the counters, and the per-slot accounting added by slotLayers.
// Counts whose direction means nothing (input fingerprints) say "lower".
var perLayer = append([]metricDef{
	// The traced pass reports raw times; this is the kernel's p50 over the
	// pass (calib.go), for bringing two passes to one host speed.
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
	// lib_core
	{Name: "graph.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.build_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.and_core_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.snd_core_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.and_core_t1_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.snd_core_sweeps", Unit: "count", Better: "lower"},
	{Name: "peel.core_ms", Unit: "ms", Better: "lower"},
	{Name: "peel.core_t1_ms", Unit: "ms", Better: "lower"},
	{Name: "hierarchy.core_ms", Unit: "ms", Better: "lower"},
	{Name: "query.core_estimate_ms", Unit: "ms", Better: "lower"},
	// lib_nucleus
	{Name: "cliques.tri_enum_ms", Unit: "ms", Better: "lower"},
	{Name: "cliques.tri_index_ms", Unit: "ms", Better: "lower"},
	{Name: "cliques.k4_incidence_ms", Unit: "ms", Better: "lower"},
	{Name: "cliques.triangles", Unit: "count", Better: "lower"},
	{Name: "cliques.k4", Unit: "count", Better: "lower"},
	{Name: "nucleus.build_truss_ms", Unit: "ms", Better: "lower"},
	{Name: "nucleus.build_n34_ms", Unit: "ms", Better: "lower"},
	{Name: "nucleus.index_bytes", Unit: "count", Better: "lower"},
	{Name: "localhi.and_truss_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.snd_truss_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.and_n34_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.and_truss_t1_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.snd_truss_sweeps", Unit: "count", Better: "lower"},
	{Name: "localhi.snd_truss_visits", Unit: "count", Better: "lower"},
	{Name: "localhi.snd3_kendall_truss", Unit: "score", Better: "higher"},
	{Name: "peel.truss_ms", Unit: "ms", Better: "lower"},
	{Name: "peel.n34_ms", Unit: "ms", Better: "lower"},
	{Name: "hierarchy.truss_ms", Unit: "ms", Better: "lower"},
	{Name: "hierarchy.truss_nodes", Unit: "count", Better: "lower"},
	// serve_query
	{Name: "server.hit_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hit_transport_ms", Unit: "ms", Better: "lower"},
	{Name: "server.core_lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "server.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "localhi.snd_truss_budget_ms", Unit: "ms", Better: "lower"},
	{Name: "server.job_submit_to_done_ms", Unit: "ms", Better: "lower"},
	{Name: "server.hierarchy_ms", Unit: "ms", Better: "lower"},
	{Name: "hierarchy.truss_serve_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.shed_ratio", Unit: "ratio", Better: "lower"},
	// fleet_mutate
	{Name: "dynamic.apply_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.static_ms", Unit: "ms", Better: "lower"},
	{Name: "dynamic.warm_core_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_append_ms", Unit: "ms", Better: "lower"},
	{Name: "store.wal_bytes_per_batch", Unit: "count", Better: "lower"},
	{Name: "store.snapshot_save_ms", Unit: "ms", Better: "lower"},
	{Name: "store.snapshot_bytes", Unit: "count", Better: "lower"},
	{Name: "store.load_ms", Unit: "ms", Better: "lower"},
	{Name: "server.mutate_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "server.read_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "server.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "server.replayed_batches", Unit: "count", Better: "lower"},
	{Name: "server.warm_runs", Unit: "count", Better: "higher"},
	{Name: "server.cold_runs", Unit: "count", Better: "lower"},
	{Name: "replica.pull_ms", Unit: "ms", Better: "lower"},
	{Name: "replica.bytes_per_batch", Unit: "count", Better: "lower"},
	{Name: "replica.resync_ms", Unit: "ms", Better: "lower"},
	{Name: "router.read_hop_ms", Unit: "ms", Better: "lower"},
	{Name: "router.write_hop_ms", Unit: "ms", Better: "lower"},
}, slotLayers()...)

// slotLayers declares, for each slotted op of each workload, the traced
// op's accounting: the summed self time of the layer spans under it, what
// the spans leave unexplained (layers + residual = the traced op's wall
// time, exactly), and the traced p50 over the untraced p50 of the warm-up
// rounds — the tracing overhead.
func slotLayers() []metricDef {
	var out []metricDef
	for _, w := range workloadNames {
		for _, s := range slotNames {
			out = append(out,
				metricDef{Name: w + "." + s + "_layers_ms", Unit: "ms", Better: "lower"},
				metricDef{Name: w + "." + s + "_residual_ms", Unit: "ms", Better: "lower"},
				metricDef{Name: w + "." + s + "_trace_ratio", Unit: "ratio", Better: "lower"},
			)
		}
	}
	return out
}

// tracedRoundsAt20 is how many rounds of each script a traced pass replays
// when asked for 20 s: about a quarter of an untraced run's. The count is
// fixed, not time-boxed, so that the counters repeat exactly for a seed.
var tracedRoundsAt20 = map[string]int{"lib_core": 8, "lib_nucleus": 8, "serve_query": 8, "fleet_mutate": 12}

// runTraced is the per-module pass. It is one pass over the whole
// repository: all four scripts, a quarter of the rounds each, every call
// into a layer wrapped in a span — whichever workload the command line
// names, because the contract wants every per-layer metric from every
// invocation, and a layer a workload bypasses has no time to report there.
func runTraced(cfg config, traceOut string) (*outcome, error) {
	tr := newTracer()
	layers := map[string]float64{}
	out := &outcome{metrics: map[string]float64{}}
	for _, name := range workloadNames {
		c := cfg
		c.workload, c.setups, c.trace = name, 1, true
		if err := tracedWorkload(c, tr, layers, out); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	for name, ms := range layerSelf(tr.spans) {
		layers[name] = median(ms)
	}
	layers["host.calib_ms"] = median(out.calib)
	for name, vs := range tr.counts {
		if _, derived := layers[name]; !derived {
			layers[name] = median(vs)
		}
	}
	var missing []string
	for _, def := range perLayer {
		v, ok := layers[def.Name]
		if !ok {
			missing = append(missing, def.Name)
		}
		out.metrics[def.Name] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("traced pass measured no %v", missing)
	}
	if err := tr.writeFile(traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bench: traced pass: %d spans written to %s\n", len(tr.spans), traceOut)
	return out, nil
}

func tracedWorkload(cfg config, tr *tracer, layers map[string]float64, out *outcome) error {
	start := time.Now()
	w, warm, _, err := setUpMedian(cfg)
	if err != nil {
		return err
	}
	defer w.tearDown()
	rounds := max(2, int(float64(tracedRoundsAt20[cfg.workload])*cfg.seconds/20))
	// Half as many untraced rounds first, in the same process and state:
	// the reference the tracing overhead is measured against. (The warm-up
	// rounds will not do: they run cold and read up to 50 % slower.)
	first := cfg.size.warmRounds(cfg.workload)
	ref := runRounds(w, first, nil, func(done int) bool { return done >= (rounds+1)/2 })
	rec := runRounds(w, first+ref.rounds, tr, func(done int) bool { return done >= rounds })
	if err := w.check(rec); err != nil {
		return fmt.Errorf("check could not run: %w", err)
	}
	if err := w.finishTrace(rec, layers); err != nil {
		return err
	}
	out.calib = append(out.calib, rec.calib...)
	out.attempted += warm.ops + ref.ops + rec.ops
	out.failed += warm.failed + ref.failed + rec.failed

	// Per-slot accounting; op names carry the workload, so the other
	// workloads' spans in the shared tracer fall away by name.
	walls, sums, residuals := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, b := range opBreakdowns(tr.spans) {
		walls[b.Name] = append(walls[b.Name], b.Wall)
		sums[b.Name] = append(sums[b.Name], b.Layers)
		residuals[b.Name] = append(residuals[b.Name], b.Residual)
	}
	for s, slot := range slotNames {
		op := cfg.workload + "/" + slot
		if len(walls[op]) == 0 || len(ref.slot[s]) == 0 {
			return fmt.Errorf("traced pass has no %s op to account for", op)
		}
		prefix := cfg.workload + "." + slot
		layers[prefix+"_layers_ms"] = median(sums[op])
		layers[prefix+"_residual_ms"] = median(residuals[op])
		layers[prefix+"_trace_ratio"] = median(walls[op]) / median(ref.slot[s])
		fmt.Fprintf(os.Stderr, "bench: traced %-18s wall p50 %9.3f ms, layers p50 %9.3f, residual p50 %9.3f; untraced p50 %9.3f ms\n",
			op, median(walls[op]), median(sums[op]), median(residuals[op]), median(ref.slot[s]))
	}
	fmt.Fprintf(os.Stderr, "bench: traced %s: %d rounds, %d ops, %d failed, %.1f s\n", cfg.workload, rounds, rec.ops, rec.failed, time.Since(start).Seconds())
	return nil
}
