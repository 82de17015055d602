package peel_test

import (
	"testing"

	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// diffThreads is the worker-count axis of the differential suite.
var diffThreads = []int{1, 2, 4, 8}

// TestDifferentialParallelPeel is the differential property suite of the
// peel against the parallel local algorithms: for every generator family,
// cell family (stored, discovered and hypergraph rows) and thread count,
//
//	Run κ == reference peel κ == converged local τ (AND and SND),
//
// with Run's Order a valid peeling order. The suite runs under -race in
// CI, which is what makes the "no subtle nondeterminism" claim a tested
// property rather than a hope.
func TestDifferentialParallelPeel(t *testing.T) {
	for _, fam := range peel.DiffFamilies {
		g := fam.Mk()
		for _, instKind := range peel.DiffInstances {
			t.Run(fam.Name+"/"+instKind.Name, func(t *testing.T) {
				inst := instKind.Mk(g)
				seq := peel.RefPeel(inst)
				run := peel.Run(inst)
				peel.CheckKappa(t, "Run", inst, run, seq)
				peel.CheckValidOrder(t, inst, run)
				for _, threads := range diffThreads {
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
// families: the peel κ of every cell is bounded by its s-degree and the
// level structure partitions all cells.
func TestDifferentialLevelsBound(t *testing.T) {
	for _, fam := range peel.DiffFamilies {
		g := fam.Mk()
		inst := nucleus.NewCore(g)
		par := peel.Run(inst)
		lv := peel.Levels(inst)
		deg := inst.Degrees()
		total := 0
		for _, sz := range lv.Sizes {
			total += sz
		}
		if total != len(par.Kappa) {
			t.Fatalf("%s: levels cover %d cells, want %d", fam.Name, total, len(par.Kappa))
		}
		for c, k := range par.Kappa {
			if k > deg[c] {
				t.Fatalf("%s: κ(%d) = %d exceeds degree %d", fam.Name, c, k, deg[c])
			}
		}
	}
}
