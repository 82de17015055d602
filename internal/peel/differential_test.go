package peel

import (
	"fmt"
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

// diffThreads is the worker-count axis of the differential suite.
var diffThreads = []int{1, 2, 4, 8}

// diffFamilies are the 8 generator families the differential suite runs
// over. Sizes are kept modest so the full cross product (families ×
// instances × thread counts × three engines) stays fast under -race.
var diffFamilies = []struct {
	name string
	mk   func() *graph.Graph
}{
	{"complete", func() *graph.Graph { return graph.Complete(10) }},
	{"cliqueChain", func() *graph.Graph { return graph.CliqueChain(4, 6) }},
	{"gnm", func() *graph.Graph { return graph.GnM(220, 800, 1) }},
	{"barabasiAlbert", func() *graph.Graph { return graph.BarabasiAlbert(200, 5, 2) }},
	{"rmat", func() *graph.Graph { return graph.RMAT(8, 4, 0.45, 0.22, 0.22, 3) }},
	{"wattsStrogatz", func() *graph.Graph { return graph.WattsStrogatz(180, 6, 0.1, 4) }},
	{"plantedCommunities", func() *graph.Graph { return graph.PlantedCommunities(5, 18, 0.45, 50, 5) }},
	{"powerLawCluster", func() *graph.Graph { return graph.PowerLawCluster(200, 6, 0.45, 6) }},
}

// diffInstances are the cell families differentiated per graph: the three
// first-class families (on-the-fly and flat-indexed) plus generic (r,s)
// pairs, over the flat CSR incidence and over the explicit hypergraph.
var diffInstances = []struct {
	name string
	mk   func(g *graph.Graph) nucleus.Instance
}{
	{"core", func(g *graph.Graph) nucleus.Instance { return nucleus.NewCore(g) }},
	{"truss", func(g *graph.Graph) nucleus.Instance { return nucleus.NewTruss(g) }},
	{"trussIndexed", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlatTruss(g, 2) }},
	{"n34", func(g *graph.Graph) nucleus.Instance { return nucleus.NewN34(g) }},
	{"n34Indexed", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlatN34(g, 2) }},
	{"rs13", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlat(g, 1, 3, 2) }},
	{"rs24", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlat(g, 2, 4, 2) }},
	{"rs24Hyper", func(g *graph.Graph) nucleus.Instance { return nucleustest.NewHyper(g, 2, 4) }},
}

// TestDifferentialParallelPeel is the differential property suite of the
// peel's two entry points: for every generator family, cell family and
// thread count,
//
//	RunThreads κ == Run κ == reference peel κ == converged local τ (AND and SND),
//
// with RunThreads' Order additionally bit-identical across thread counts.
// The suite runs under -race in CI, which is what makes the "no subtle
// nondeterminism" claim a tested property rather than a hope.
func TestDifferentialParallelPeel(t *testing.T) {
	for _, fam := range diffFamilies {
		g := fam.mk()
		for _, instKind := range diffInstances {
			t.Run(fam.name+"/"+instKind.name, func(t *testing.T) {
				inst := instKind.mk(g)
				seq := refPeel(inst)
				run := Run(inst)
				checkKappa(t, "Run", inst, run, seq)
				checkValidOrder(t, inst, run)
				var refOrder []int32
				for _, threads := range diffThreads {
					par := RunThreads(inst, threads)
					checkKappa(t, fmt.Sprintf("threads=%d", threads), inst, par, seq)
					if refOrder == nil {
						refOrder = par.Order
						checkValidOrder(t, inst, par)
					} else if !slices.Equal(par.Order, refOrder) {
						t.Fatalf("threads=%d: order differs from the threads=1 order", threads)
					}

					// Converged local algorithms must land on the same κ.
					for _, alg := range []struct {
						name string
						run  func() *localhi.Result
					}{
						{"and", func() *localhi.Result {
							return localhi.And(inst, localhi.Options{Threads: threads, Notification: true})
						}},
						{"snd", func() *localhi.Result {
							return localhi.Snd(inst, localhi.Options{Threads: threads})
						}},
					} {
						lr := alg.run()
						if !lr.Converged {
							t.Fatalf("threads=%d: %s did not converge", threads, alg.name)
						}
						for c := range seq.Kappa {
							if lr.Tau[c] != seq.Kappa[c] {
								t.Fatalf("threads=%d: %s τ(%s) = %d, peel κ %d",
									threads, alg.name, inst.CellLabel(int32(c)), lr.Tau[c], seq.Kappa[c])
							}
						}
					}
				}
			})
		}
	}
}

// TestDifferentialLevelsBound spot-checks Theorem 3 glue across the
// families: the parallel peel κ of every cell is bounded by its s-degree
// and the level structure partitions all cells.
func TestDifferentialLevelsBound(t *testing.T) {
	for _, fam := range diffFamilies {
		g := fam.mk()
		inst := nucleus.NewCore(g)
		par := RunThreads(inst, 4)
		lv := Levels(inst)
		deg := inst.Degrees()
		total := 0
		for _, sz := range lv.Sizes {
			total += sz
		}
		if total != len(par.Kappa) {
			t.Fatalf("%s: levels cover %d cells, want %d", fam.name, total, len(par.Kappa))
		}
		for c, k := range par.Kappa {
			if k > deg[c] {
				t.Fatalf("%s: κ(%d) = %d exceeds degree %d", fam.name, c, k, deg[c])
			}
		}
	}
}
