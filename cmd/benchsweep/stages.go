package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"nucleus/internal/cliques"
	"nucleus/internal/dataset"
	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// ---------------------------------------------------------------------------
// Per-stage pipeline breakdown.
//
// The decomposition pipeline is a chain of O(n+m) stages — CSR build,
// clique enumeration, flat-index construction, bucket peeling, h-index
// sweeping — and the end-to-end speedup is governed by the slowest serial
// link (Amdahl), not by any one kernel's scaling number. This section
// times each stage in isolation on the bundled truss dataset at each
// requested thread count, so the artifact records where the wall-clock
// time actually goes and which stage caps the speedup. Unlike the kernel
// benchmarks above, these rows are measured in-process (best-of-N wall
// time) rather than through `go test -bench`: the stages share one
// generated dataset and one prebuilt instance, which keeps a full sweep
// in the low seconds.

// Stage names, in pipeline execution order.
const (
	stageBuild     = "build"
	stageEnumerate = "enumerate"
	stageIndex     = "index"
	stagePeel      = "peel"
	stageSweep     = "sweep"
)

// stageDataset is the graph every stage row is measured on: the bundled
// "fb" analogue, the same dataset the kernel benchmarks use.
const stageDataset = "fb"

// stageRow is one (stage, thread count) wall-time measurement.
type stageRow struct {
	Stage   string  `json:"stage"`
	Threads int     `json:"threads"`
	NsPerOp float64 `json:"nsPerOp"`
}

// stageBreakdown is the "stages" artifact section.
type stageBreakdown struct {
	Dataset string     `json:"dataset"`
	Reps    int        `json:"reps"`
	Rows    []stageRow `json:"rows"`
	// EndToEndSpeedupAt4 is (build+peel at 1 thread) / (build+peel at 4
	// threads): the speedup of the stages this change parallelized, end to
	// end, not per kernel. 0 when threads 1 and 4 were not both swept.
	EndToEndSpeedupAt4 float64 `json:"endToEndSpeedupAt4,omitempty"`
	// GoMaxProcsLimited is true when GOMAXPROCS < 4 at measurement time:
	// the host cannot physically exhibit 4-way scaling, so the 4-thread
	// rows bound coordination overhead and the -min-e2e-speedup gate is
	// skipped rather than reporting a spurious failure.
	GoMaxProcsLimited bool   `json:"goMaxProcsLimited"`
	Note              string `json:"note,omitempty"`
}

// measureStages times every pipeline stage at every requested thread
// count: best-of-reps wall time, one generated dataset, one prebuilt
// indexed instance (so the peel and sweep rows time only their own stage,
// not index construction). Each row is echoed to stdout as it lands.
func measureStages(threadsList []int, reps int, stdout io.Writer) []stageRow {
	g := dataset.Get(stageDataset).Graph()
	edges := g.Edges()
	n := g.N()
	inst := nucleus.NewFlatTruss(g, runtime.GOMAXPROCS(0))
	stages := []struct {
		name string
		run  func(threads int)
	}{
		{stageBuild, func(t int) { graph.BuildThreads(n, edges, t) }},
		{stageEnumerate, func(t int) { cliques.KCliquesFlat(g, 3, t) }},
		{stageIndex, func(t int) { cliques.BuildTriangleIndexThreads(g, t) }},
		{stagePeel, func(t int) { peel.RunThreads(inst, t) }},
		{stageSweep, func(t int) { localhi.Snd(inst, localhi.Options{Threads: t}) }},
	}
	var rows []stageRow
	for _, th := range threadsList {
		for _, st := range stages {
			var best time.Duration
			for r := 0; r < reps; r++ {
				start := time.Now()
				st.run(th)
				if d := time.Since(start); r == 0 || d < best {
					best = d
				}
			}
			rows = append(rows, stageRow{Stage: st.name, Threads: th, NsPerOp: float64(best.Nanoseconds())})
			fmt.Fprintf(stdout, "stage %-9s threads=%d %14d ns/op (best of %d)\n", st.name, th, best.Nanoseconds(), reps)
		}
	}
	return rows
}

// e2eNs sums the build and peel rows at the given thread count — the
// end-to-end cost of the stages the parallel spine covers. 0 when either
// row is missing.
func e2eNs(rows []stageRow, threads int) float64 {
	var build, peelNs float64
	for _, r := range rows {
		if r.Threads != threads {
			continue
		}
		switch r.Stage {
		case stageBuild:
			build = r.NsPerOp
		case stagePeel:
			peelNs = r.NsPerOp
		}
	}
	if build == 0 || peelNs == 0 {
		return 0
	}
	return build + peelNs
}

// buildStages assembles the stages artifact section and enforces the
// -min-e2e-speedup gate. Like the parallel-peel gate, it is armed only
// when the host can actually run 4 threads in parallel; on
// GOMAXPROCS-limited machines the rows are recorded and flagged instead.
func buildStages(rows []stageRow, reps int, minE2E float64, gomaxprocs int) (*stageBreakdown, error) {
	sec := &stageBreakdown{Dataset: stageDataset, Reps: reps, Rows: rows}
	base, at4 := e2eNs(rows, 1), e2eNs(rows, 4)
	if base > 0 && at4 > 0 {
		sec.EndToEndSpeedupAt4 = base / at4
	}
	if gomaxprocs < 4 {
		sec.GoMaxProcsLimited = true
		sec.Note = fmt.Sprintf("GOMAXPROCS=%d at measurement time: 4-thread rows bound coordination overhead, not speedup; scaling numbers come from multi-core runs (CI)", gomaxprocs)
	}
	if minE2E > 0 && !sec.GoMaxProcsLimited {
		if sec.EndToEndSpeedupAt4 == 0 {
			return sec, fmt.Errorf("-min-e2e-speedup set but threads 1 and/or 4 not swept")
		}
		if sec.EndToEndSpeedupAt4 < minE2E {
			return sec, fmt.Errorf("end-to-end (build+peel) speedup at 4 threads %.2fx below the -min-e2e-speedup gate %.2fx", sec.EndToEndSpeedupAt4, minE2E)
		}
	}
	return sec, nil
}

// checkStageRegress compares this run's stage rows against the committed
// artifact and fails when any stage slowed down by more than maxRegress
// (fractional, e.g. 0.2 = 20%). Wall-time comparisons across different
// hosts are meaningless, so the gate is armed only when the baseline was
// measured at the same GOMAXPROCS; otherwise (or when the baseline
// predates the stages schema) it reports the skip and passes.
func checkStageRegress(cur *stageBreakdown, baseline *artifact, maxRegress float64, gomaxprocs int, stdout io.Writer) error {
	if baseline.Stages == nil {
		fmt.Fprintln(stdout, "stage baseline has no stages section; regression gate skipped")
		return nil
	}
	if baseline.GoMaxProcs != gomaxprocs {
		fmt.Fprintf(stdout, "stage baseline measured at GOMAXPROCS=%d, this host runs %d; regression gate skipped\n", baseline.GoMaxProcs, gomaxprocs)
		return nil
	}
	type key struct {
		stage   string
		threads int
	}
	base := make(map[key]float64, len(baseline.Stages.Rows))
	for _, r := range baseline.Stages.Rows {
		base[key{r.Stage, r.Threads}] = r.NsPerOp
	}
	var regressed []string
	for _, r := range cur.Rows {
		want, ok := base[key{r.Stage, r.Threads}]
		if !ok || want <= 0 {
			continue
		}
		if r.NsPerOp > want*(1+maxRegress) {
			regressed = append(regressed, fmt.Sprintf("%s at %d threads: %.0f ns/op vs baseline %.0f (+%.0f%%)",
				r.Stage, r.Threads, r.NsPerOp, want, 100*(r.NsPerOp/want-1)))
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("stage(s) regressed more than %.0f%% vs %s baseline:\n  %s",
			maxRegress*100, stageDataset, strings.Join(regressed, "\n  "))
	}
	return nil
}
