package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// toy sizes run every script in a fraction of a second. The fleet still
// gets more warm-up batches than removeLag, so its rounds are stationary.
var toy = sizes{
	coreScale:        8,
	nucComms:         2,
	serveComms:       3,
	fleetScale:       7,
	fleetDegree:      8,
	fleetBlocks:      2,
	fleetWarmBatches: removeLag + 2,
	warm:             map[string]int{"lib_core": 1, "lib_nucleus": 1, "serve_query": 1, "fleet_mutate": 1},
}

func toyConfig(t *testing.T, workload string) config {
	return config{workload: workload, seed: 1, seconds: 0.2, threads: 2, size: toy, setups: 1, minSamples: 1, dataDir: t.TempDir()}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) manifest {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// sameNames fails unless got and want hold the same names, reporting both
// directions: printed but undeclared, declared but not printed.
func sameNames(t *testing.T, what string, got map[string]float64, want []manifestMetric) {
	t.Helper()
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, the run did not print it", what, m.Name)
		}
	}
	for name := range got {
		if !declared[name] {
			t.Errorf("%s: the run printed %s, BENCHMARK.json does not declare it", what, name)
		}
	}
}

// The tables in layers.go are what the program prints; BENCHMARK.json is
// what the driver expects. Name, unit, direction and bound must agree.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	check := func(what string, defs []metricDef, listed []manifestMetric, bounded bool) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", what, len(defs), len(listed))
		}
		byName := map[string]manifestMetric{}
		for _, l := range listed {
			byName[l.Name] = l
		}
		for _, d := range defs {
			l, ok := byName[d.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is missing from BENCHMARK.json", what, d.Name)
			case l.Unit != d.Unit || l.Better != d.Better:
				t.Errorf("%s: %s is %s/%s in the program, %s/%s in BENCHMARK.json", what, d.Name, d.Unit, d.Better, l.Unit, l.Better)
			case bounded && (l.Bound == nil || *l.Bound != d.Bound):
				t.Errorf("%s: %s has bound %v in the program, %v in BENCHMARK.json", what, d.Name, d.Bound, l.Bound)
			case !bounded && l.Bound != nil:
				t.Errorf("%s: %s must carry no bound", what, d.Name)
			}
		}
	}
	check("end_to_end", endToEnd, m.EndToEnd, true)
	check("per_layer", perLayer, m.PerLayer, false)

	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, the program's %v", names, workloadNames)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths = %v, want only bench", m.Paths)
	}
}

func TestEveryWorkloadPrintsTheDeclaredEndToEndMetrics(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloadNames {
		out, err := runEndToEnd(toyConfig(t, w))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		sameNames(t, w, out.metrics, m.EndToEnd)
		if out.failed != 0 || out.attempted == 0 || out.rounds == 0 {
			t.Errorf("%s: %d of %d ops failed over %d rounds", w, out.failed, out.attempted, out.rounds)
		}
		res, err := newResult(out, endToEnd)
		if err != nil || !res.Correct || len(res.Metrics) != len(m.EndToEnd) {
			t.Errorf("%s: result line %+v, %v", w, res, err)
		}
		for name, v := range out.metrics {
			if !(v > 0) {
				t.Errorf("%s/%s = %v: an end-to-end metric is never 0", w, name, v)
			}
		}
	}
}

// A wrong answer must reach the failure count on every workload: the
// oracles are wired to the result, not decoration.
func TestSabotagedAnswersFail(t *testing.T) {
	for _, w := range workloadNames {
		cfg := toyConfig(t, w)
		cfg.sabotage = true
		out, err := runEndToEnd(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if out.failed == 0 {
			t.Errorf("%s: a corrupted answer per round and no failed op", w)
		}
		if res, _ := newResult(out, endToEnd); res.Correct {
			t.Errorf("%s: correct must be false when ops failed", w)
		}
	}
}

func TestTooFewSamplesIsAnError(t *testing.T) {
	cfg := toyConfig(t, "lib_core")
	cfg.minSamples = 0 // the real floor of 30
	cfg.seconds = 0.001
	if _, err := runEndToEnd(cfg); err == nil || !strings.Contains(err.Error(), "fewer than 30") {
		t.Errorf("a one-round run must refuse to print percentiles: %v", err)
	}
	cfg.workload = "no_such"
	if _, err := runEndToEnd(cfg); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

func TestTracedPassPrintsTheDeclaredLayers(t *testing.T) {
	m := readManifest(t)
	var runs [2]*outcome
	for i := range runs {
		cfg := toyConfig(t, "lib_core")
		cfg.seconds = 1 // scales to the floor of two traced rounds
		out, err := runTraced(cfg, t.TempDir()+"/trace.json")
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Errorf("traced pass: %d of %d ops failed", out.failed, out.attempted)
		}
		runs[i] = out
	}
	sameNames(t, "traced pass", runs[0].metrics, m.PerLayer)

	// Counters repeat exactly for a seed; times of course do not.
	var drift []string
	for _, def := range perLayer {
		if def.Unit == "count" && runs[0].metrics[def.Name] != runs[1].metrics[def.Name] {
			drift = append(drift, def.Name)
		}
	}
	sort.Strings(drift)
	if len(drift) > 0 {
		t.Errorf("counters differ between two passes with one seed: %v", drift)
	}
}
