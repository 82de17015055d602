// Command experiments regenerates the paper's tables and figures on the
// synthetic dataset registry. Run with no flags to execute everything, or
// select one experiment:
//
//	experiments -exp fig1a      # truss convergence (Kendall-Tau vs iteration)
//	experiments -exp fig1b      # scalability (sequential peel vs AND at 1..P threads, measured)
//	experiments -exp table3     # dataset statistics
//	experiments -exp table4     # iterations to convergence, SND vs AND
//	experiments -exp table5     # runtimes, peeling vs SND vs AND
//	experiments -exp plateaus   # tau trajectories (Figure 5)
//	experiments -exp bound      # Theorem 3 degree-level bound
//	experiments -exp tradeoff   # accuracy/runtime trade-off
//	experiments -exp query      # query-driven estimation
//	experiments -exp order      # AND processing-order ablation: iterations and visits per order
//	experiments -exp density    # density of discovered subgraphs
//	experiments -exp fig2       # the paper's Figure 2 walk-through
//
// The -dec flag selects the decomposition where applicable: core, truss or
// n34, or any alias nucleusd accepts (docs/API.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nucleus/internal/dataset"
	"nucleus/internal/experiments"
	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
)

// allExperiments is the default execution order.
var allExperiments = []string{
	"table3", "fig2", "fig1a", "fig1b", "table4", "table5",
	"plateaus", "bound", "tradeoff", "query", "order", "density",
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see command doc; 'all' runs everything)")
	dec := flag.String("dec", "truss", "decomposition: core, truss or n34 (aliases as in docs/API.md)")
	flag.Parse()

	if err := run(*exp, *dec, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
}

func run(exp, dec string, w io.Writer) error {
	d, err := nucleus.ParseFamily(dec)
	if err != nil {
		return err
	}
	if exp == "all" {
		for _, name := range allExperiments {
			if err := runOne(name, d, w); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(exp, d, w)
}

func runOne(name string, d nucleus.Family, w io.Writer) error {
	// The (3,4) instance is the most expensive (as in the paper); restrict
	// it to the datasets flagged affordable.
	keysFor := func(d nucleus.Family) []string {
		if d == nucleus.FamilyN34 {
			var keys []string
			for _, ds := range dataset.Small34() {
				keys = append(keys, ds.Key)
			}
			return keys
		}
		return dataset.Keys()
	}

	switch name {
	case "fig1a":
		experiments.Fig1aConvergence(w, d, experiments.Fig1aKeys, 0)
	case "fig1b":
		experiments.Fig1bScalability(w, d, experiments.Fig1bKeys)
	case "table3":
		experiments.Table3(w, dataset.Keys())
	case "table4":
		experiments.Table4Iterations(w, d, keysFor(d))
	case "table5":
		experiments.Table5Runtimes(w, d, keysFor(d))
	case "plateaus":
		experiments.Plateaus(w, d, "fb", 8)
		fmt.Fprintln(w)
		experiments.PlateauStats(w, d, keysFor(d))
	case "bound":
		experiments.Bound(w, d, boundKeys(d))
	case "tradeoff":
		experiments.Tradeoff(w, d, "fb")
	case "query":
		experiments.Query(w, "hg", 64, []int{0, 1, 2, 3, 4}, 1)
	case "order":
		experiments.OrderAblation(w, d, keysFor(d), 1)
	case "density":
		experiments.DensityQuality(w, "fb", 8)
		fmt.Fprintln(w)
		experiments.DensityQuality(w, "tw", 8)
	case "fig2":
		figure2Walkthrough(w)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	fmt.Fprintln(w)
	return nil
}

// boundKeys limits the degree-level computation (quadratic scan per level)
// to moderate datasets.
func boundKeys(d nucleus.Family) []string {
	if d == nucleus.FamilyN34 {
		return []string{"fb", "tw"}
	}
	return []string{"fb", "tw", "sse", "wn"}
}

// figure2Walkthrough replays the paper's Figure 2 toy example, printing the
// τ sequence of SND and of AND under two orders.
func figure2Walkthrough(w io.Writer) {
	g := graph.Figure2()
	names := graph.Figure2Vertices
	inst := nucleus.NewCore(g)
	fmt.Fprintln(w, "# Figure 2 walk-through: k-core on the toy graph")
	fmt.Fprintf(w, "%-18s", "vertex")
	for _, n := range names {
		fmt.Fprintf(w, "%4s", n)
	}
	fmt.Fprintln(w)
	printRow := func(label string, vals []int32) {
		fmt.Fprintf(w, "%-18s", label)
		for _, v := range vals {
			fmt.Fprintf(w, "%4d", v)
		}
		fmt.Fprintln(w)
	}
	printRow("degrees (tau0)", inst.Degrees())
	localhi.Snd(inst, localhi.Options{OnSweep: func(s int, tau []int32) {
		printRow(fmt.Sprintf("SND tau%d", s), tau)
	}})
	res := localhi.And(inst, localhi.Options{Order: []int32{5, 4, 0, 1, 2, 3}})
	printRow("AND {f,e,a,b,c,d}", res.Tau)
	fmt.Fprintf(w, "AND with the kappa-ordered {f,e,a,b,c,d} order converged in %d iteration(s) (Theorem 4)\n", res.Iterations)
}
