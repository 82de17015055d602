// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the synthetic dataset registry. Each function prints a
// paper-style table or data series to the supplied writer; cmd/experiments
// exposes them on the command line.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"nucleus/internal/dataset"
	"nucleus/internal/densest"
	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	"nucleus/internal/metrics"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// Dec identifies one of the three evaluated decompositions.
type Dec int

// The three instances evaluated in the paper.
const (
	Core Dec = iota
	Truss
	N34
)

func (d Dec) String() string {
	switch d {
	case Core:
		return "(1,2)"
	case Truss:
		return "(2,3)"
	}
	return "(3,4)"
}

// Instance builds the nucleus instance of d over g.
func (d Dec) Instance(g *graph.Graph) nucleus.Instance {
	switch d {
	case Core:
		return nucleus.NewCore(g)
	case Truss:
		return nucleus.NewTruss(g)
	}
	return nucleus.NewN34(g)
}

// Fig1aKeys are the five datasets of the paper's Figure 1a.
var Fig1aKeys = []string{"fb", "sse", "tw", "wn", "wiki"}

// Fig1bKeys are the six datasets of the paper's Figure 1b.
var Fig1bKeys = []string{"ask", "fri", "hg", "ork", "slj", "wiki"}

// Fig1aConvergence prints the Kendall-Tau similarity between the
// intermediate τ of SND and the exact κ, per iteration (Figure 1a; also the
// per-decomposition convergence-rate figures of §5).
func Fig1aConvergence(w io.Writer, d Dec, keys []string, maxIter int) {
	fmt.Fprintf(w, "# Figure 1a style: %s convergence, Kendall-Tau of tau_t vs exact kappa\n", d)
	fmt.Fprintf(w, "%-6s", "iter")
	for _, k := range keys {
		fmt.Fprintf(w, "%10s", k)
	}
	fmt.Fprintln(w)
	series := make([][]float64, len(keys))
	maxLen := 0
	for i, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		exact := peel.Run(inst).Kappa
		localhi.Snd(inst, localhi.Options{MaxSweeps: maxIter, OnSweep: func(_ int, tau []int32) {
			series[i] = append(series[i], metrics.KendallTauB(tau, exact))
		}})
		if len(series[i]) > maxLen {
			maxLen = len(series[i])
		}
	}
	for it := 0; it < maxLen; it++ {
		fmt.Fprintf(w, "%-6d", it+1)
		for i := range keys {
			if it < len(series[i]) {
				fmt.Fprintf(w, "%10.4f", series[i][it])
			} else {
				fmt.Fprintf(w, "%10.4f", series[i][len(series[i])-1])
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig1bScalability prints what the paper's Figure 1b compares, measured on
// this host: the sequential peel, then AND with notification at 1, 2, 4, …
// threads up to GOMAXPROCS, each with its speedup over the peel. A family
// whose s-cliques are discovered on the fly adds the ladder of the frontier
// peel peel.RunThreads runs there; over stored rows RunThreads is the
// sequential peel at every thread count. Times are the best of three runs.
func Fig1bScalability(w io.Writer, d Dec, keys []string) {
	procs := runtime.GOMAXPROCS(0)
	var ladder []int // 1, 2, 4, … and, last, the host itself
	for t := 1; t < procs; t *= 2 {
		ladder = append(ladder, t)
	}
	ladder = append(ladder, procs)
	for i, key := range keys {
		inst := d.Instance(dataset.Get(key).Graph())
		_, stored := nucleus.RowsOf(inst)
		if i == 0 { // the kind is the family's, the same for every dataset
			kind := map[bool]string{true: "stored rows", false: "s-cliques found on the fly"}[stored]
			fmt.Fprintf(w, "# Figure 1b style: %s, %s: sequential peel vs AND at 1..P threads (best of 3 wall times, GOMAXPROCS=%d on this host)\n", d, kind, procs)
			fmt.Fprintf(w, "%-6s %-14s %-12s %12s %10s\n", "key", "engine", "threads", "time", "vs peel")
		}
		peelT := bestOf3(func() { peel.Run(inst) })
		row := func(engine string, t int, took time.Duration) {
			fmt.Fprintf(w, "%-6s %-14s threads=%-4d %12v %10.2f\n", key, engine, t,
				took.Round(time.Microsecond), peelT.Seconds()/took.Seconds())
		}
		row("peel", 1, peelT)
		for _, t := range ladder {
			row("AND+notif", t, bestOf3(func() { localhi.And(inst, localhi.Options{Notification: true, Threads: t}) }))
		}
		if stored {
			continue // RunThreads is that same peel at every thread count
		}
		for _, t := range ladder {
			row("frontier-peel", t, bestOf3(func() { peel.RunThreads(inst, t) }))
		}
	}
}

// bestOf3 returns the shortest of three wall times of f.
func bestOf3(f func()) time.Duration {
	var best time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// Table3 prints dataset statistics: measured values of the synthetic
// analogues next to the paper's originals.
func Table3(w io.Writer, keys []string) {
	fmt.Fprintln(w, "# Table 3: dataset statistics (measured synthetic analogue | paper original)")
	fmt.Fprintf(w, "%-6s %-22s %12s %12s %12s %12s   %s\n",
		"key", "name", "|V|", "|E|", "|tri|", "|K4|", "paper (V,E,tri,K4)")
	for _, key := range keys {
		d := dataset.Get(key)
		s := dataset.Measure(d.Graph())
		fmt.Fprintf(w, "%-6s %-22s %12d %12d %12d %12d   %s,%s,%s,%s\n",
			d.Key, d.Name, s.V, s.E, s.Tri, s.K4,
			d.Paper.V, d.Paper.E, d.Paper.Tri, d.Paper.K4)
	}
}

// Table4Iterations prints the number of iterations SND and AND need to
// converge (the paper's iteration table; AND converges in roughly half the
// iterations of SND).
func Table4Iterations(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Table 4 style: %s iterations to convergence\n", d)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %12s\n", "key", "SND", "AND", "AND-notif", "levels-bound")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		snd := localhi.Snd(inst, localhi.Options{})
		and := localhi.And(inst, localhi.Options{})
		andN := localhi.And(inst, localhi.Options{Notification: true})
		lv := peel.Levels(inst)
		fmt.Fprintf(w, "%-6s %10d %10d %10d %12d\n",
			key, snd.Iterations, and.Iterations, andN.Iterations, lv.Count)
	}
}

// Table5Runtimes prints wall-clock runtimes of peeling, SND and AND
// (sequential on this host) plus AND's s-clique visit counts with and
// without notification — the work the notification mechanism saves.
func Table5Runtimes(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Table 5 style: %s runtimes (sequential wall clock on this host)\n", d)
	fmt.Fprintf(w, "%-6s %12s %12s %12s %14s %14s\n",
		"key", "peel", "SND", "AND+notif", "visits(AND)", "visits(notif)")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)

		t0 := time.Now()
		peel.Run(inst)
		peelT := time.Since(t0)

		t0 = time.Now()
		localhi.Snd(inst, localhi.Options{})
		sndT := time.Since(t0)

		t0 = time.Now()
		notif := localhi.And(inst, localhi.Options{Notification: true})
		andT := time.Since(t0)

		plain := localhi.And(inst, localhi.Options{})
		fmt.Fprintf(w, "%-6s %12v %12v %12v %14d %14d\n",
			key, peelT.Round(time.Millisecond), sndT.Round(time.Millisecond),
			andT.Round(time.Millisecond), plain.WorkVisits, notif.WorkVisits)
	}
}

// Plateaus prints the τ trajectory of the `track` highest-degree cells
// across SND iterations (the paper's Figure 5: wide plateaus during
// convergence).
func Plateaus(w io.Writer, d Dec, key string, track int) {
	g := dataset.Get(key).Graph()
	inst := d.Instance(g)
	deg := inst.Degrees()
	// Track the highest-degree cells: they travel farthest and plateau.
	ids := make([]int32, len(deg))
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool { return deg[ids[a]] > deg[ids[b]] })
	if track > len(ids) {
		track = len(ids)
	}
	tracked := ids[:track]
	fmt.Fprintf(w, "# Figure 5 style: tau trajectories of %d highest-degree %s cells on %s\n", track, d, key)
	fmt.Fprintf(w, "%-6s", "iter")
	for _, c := range tracked {
		fmt.Fprintf(w, "%8s", inst.CellLabel(c))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-6d", 0)
	for _, c := range tracked {
		fmt.Fprintf(w, "%8d", deg[c])
	}
	fmt.Fprintln(w)
	localhi.Snd(inst, localhi.Options{OnSweep: func(s int, tau []int32) {
		fmt.Fprintf(w, "%-6d", s)
		for _, c := range tracked {
			fmt.Fprintf(w, "%8d", tau[c])
		}
		fmt.Fprintln(w)
	}})
}

// PlateauStats quantifies Figure 5: the fraction of cell-sweeps that are
// plateaus (no change), which is exactly the work the notification
// mechanism can skip.
func PlateauStats(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Plateau statistics for %s: fraction of cell-sweeps with unchanged tau\n", d)
	fmt.Fprintf(w, "%-6s %10s %14s %14s %10s\n", "key", "sweeps", "cell-sweeps", "updates", "plateau%")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		res := localhi.Snd(inst, localhi.Options{})
		cellSweeps := int64(res.Sweeps) * int64(inst.NumCells())
		plateau := 100 * float64(cellSweeps-res.Updates) / float64(cellSweeps)
		fmt.Fprintf(w, "%-6s %10d %14d %14d %9.1f%%\n",
			key, res.Sweeps, cellSweeps, res.Updates, plateau)
	}
}

// Bound compares the degree-level upper bound of Theorem 3 with observed
// SND iterations and the trivial bound |R| (§3.1).
func Bound(w io.Writer, d Dec, keys []string) {
	fmt.Fprintf(w, "# Theorem 3: convergence bound via degree levels, %s\n", d)
	fmt.Fprintf(w, "%-6s %10s %10s %12s\n", "key", "cells", "levels", "SND-iters")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		lv := peel.Levels(inst)
		res := localhi.Snd(inst, localhi.Options{})
		fmt.Fprintf(w, "%-6s %10d %10d %12d\n", key, inst.NumCells(), lv.Count, res.Iterations)
	}
}

// Tradeoff prints the accuracy/runtime trade-off (§5): Kendall-Tau, exact
// fraction and cumulative time after every iteration of SND.
func Tradeoff(w io.Writer, d Dec, key string) {
	g := dataset.Get(key).Graph()
	inst := d.Instance(g)
	exact := peel.Run(inst).Kappa
	fmt.Fprintf(w, "# Accuracy/runtime trade-off: %s on %s\n", d, key)
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "iter", "kendall", "exact-frac", "cum-time")
	start := time.Now()
	localhi.Snd(inst, localhi.Options{OnSweep: func(s int, tau []int32) {
		kt := metrics.KendallTauB(tau, exact)
		ef := metrics.ExactFraction(tau, exact)
		fmt.Fprintf(w, "%-6d %12.4f %12.4f %12v\n", s, kt, ef, time.Since(start).Round(time.Millisecond))
	}})
}

// Query prints the query-driven estimation study (§5): mean relative error
// of κ estimates for sampled query cells as the neighborhood radius grows,
// with the fraction of the graph touched.
func Query(w io.Writer, key string, nQueries int, hopsList []int, seed int64) {
	g := dataset.Get(key).Graph()
	instCore := nucleus.NewCore(g)
	exactCore := peel.Run(instCore).Kappa
	rng := rand.New(rand.NewSource(seed))
	queries := make([]uint32, nQueries)
	for i := range queries {
		queries[i] = uint32(rng.Intn(g.N()))
	}
	fmt.Fprintf(w, "# Query-driven estimation on %s: %d random query vertices (core numbers)\n", key, nQueries)
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "hops", "mean-rel-err", "exact-frac", "region%")
	for _, hops := range hopsList {
		region := g.BFSWithin(queries, hops)
		cells := make([]int32, len(region))
		for i, v := range region {
			cells[i] = int32(v)
		}
		res := localhi.And(instCore, localhi.Options{Subset: cells, Notification: true})
		est := make([]int32, nQueries)
		want := make([]int32, nQueries)
		for i, q := range queries {
			est[i] = res.Tau[q]
			want[i] = exactCore[q]
		}
		fmt.Fprintf(w, "%-6d %12.4f %12.4f %11.2f%%\n", hops,
			metrics.MeanRelativeError(est, want), metrics.ExactFraction(est, want),
			100*float64(len(region))/float64(g.N()))
	}
}

// OrderAblation prints, for AND under different processing orders, the
// iterations to convergence (Theorem 4 and the paper's worst-case
// conjecture) beside the s-clique visits paid — sequential, notification
// on, the configuration Decompose runs. degree is ascending s-degree: the
// one order here that needs no decomposition to compute.
func OrderAblation(w io.Writer, d Dec, keys []string, seed int64) {
	fmt.Fprintf(w, "# AND processing-order ablation, %s: iterations to convergence, s-clique visits paid\n", d)
	fmt.Fprintf(w, "%-6s %-9s %10s %12s %11s\n", "key", "order", "iterations", "visits", "vs-natural")
	for _, key := range keys {
		g := dataset.Get(key).Graph()
		inst := d.Instance(g)
		pr := peel.Run(inst)
		rev := make([]int32, len(pr.Order))
		for i, c := range pr.Order {
			rev[len(rev)-1-i] = c
		}
		rnd := append([]int32(nil), pr.Order...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(rnd), func(i, j int) { rnd[i], rnd[j] = rnd[j], rnd[i] })
		var natural int64
		for _, o := range []struct {
			name  string
			order []int32
		}{
			{"natural", nil}, {"degree", ascendingOrder(inst.Degrees())},
			{"peel", pr.Order}, {"rev-peel", rev}, {"random", rnd},
		} {
			res := localhi.And(inst, localhi.Options{Order: o.order, Notification: true})
			if o.order == nil {
				natural = res.WorkVisits
			}
			fmt.Fprintf(w, "%-6s %-9s %10d %12d %11.2f\n", key, o.name, res.Iterations, res.WorkVisits,
				float64(res.WorkVisits)/float64(max(natural, 1)))
		}
	}
}

// ascendingOrder returns the cell ids sorted by (key, id) ascending with one
// counting sort.
func ascendingOrder(keys []int32) []int32 {
	var top int32
	for _, k := range keys {
		top = max(top, k)
	}
	next := make([]int32, top+2)
	for _, k := range keys {
		next[k+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	order := make([]int32, len(keys))
	for c, k := range keys {
		order[next[k]] = int32(c)
		next[k]++
	}
	return order
}

// DensityQuality reproduces the framing claim of §2 (from the nucleus
// decomposition papers the evaluation builds on): the (3,4) hierarchy
// surfaces denser subgraphs than k-core and k-truss. For each
// decomposition it reports the densest leaf nucleus with at least minV
// vertices, plus the densest-subgraph baselines.
func DensityQuality(w io.Writer, key string, minV int) {
	g := dataset.Get(key).Graph()
	fmt.Fprintf(w, "# Density of discovered subgraphs on %s (leaves with >= %d vertices)\n", key, minV)
	fmt.Fprintf(w, "%-10s %10s %10s %12s %12s\n", "method", "vertices", "edges", "avg-degree", "density")
	report := func(name string, r *densest.Result) {
		fmt.Fprintf(w, "%-10s %10d %10d %12.2f %12.3f\n",
			name, len(r.Vertices), r.Edges, r.AverageDegree, r.EdgeDensity)
	}
	report("charikar", densest.Approx(g))
	report("max-core", densest.MaxCore(g))
	for _, d := range []Dec{Core, Truss, N34} {
		inst := d.Instance(g)
		kappa := peel.Run(inst).Kappa
		f := hierarchy.Build(inst, kappa)
		best := &densest.Result{}
		for _, leaf := range f.Leaves() {
			vs := f.Vertices(leaf)
			if len(vs) < minV {
				continue
			}
			r := densest.Measure(g, vs)
			if r.EdgeDensity > best.EdgeDensity {
				best = r
			}
		}
		report(d.String(), best)
	}
}
