// Benchmarks regenerating the computational kernel of every table and
// figure in the paper's evaluation. Each benchmark reports domain metrics
// (iterations, Kendall-Tau, plateau fraction) via b.ReportMetric alongside
// the usual ns/op. The full paper-style tables are printed by
// cmd/experiments.
package nucleus

import (
	"testing"

	"nucleus/internal/dataset"
	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	"nucleus/internal/metrics"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// fbTruss returns the k-truss instance of the facebook analogue, the
// dataset of the paper's Figure 1a/Figure 5.
func fbTruss() inucleus.Instance { return inucleus.NewTruss(dataset.Get("fb").Graph()) }
func fbCore() inucleus.Instance  { return inucleus.NewCore(dataset.Get("fb").Graph()) }
func fbN34() inucleus.Instance   { return inucleus.NewN34(dataset.Get("fb").Graph()) }

// BenchmarkFig1aTrussConvergence regenerates Figure 1a's kernel: SND on the
// k-truss instance, tracking Kendall-Tau of τ_t against exact κ. Reports
// the iteration count and the Kendall-Tau reached after 5 iterations.
func BenchmarkFig1aTrussConvergence(b *testing.B) {
	inst := fbTruss()
	exact := peel.Run(inst).Kappa
	var iters int
	var ktAt5 float64
	for i := 0; i < b.N; i++ {
		res := localhi.Snd(inst, localhi.Options{OnSweep: func(s int, tau []int32) {
			if s == 5 {
				ktAt5 = metrics.KendallTauB(tau, exact)
			}
		}})
		iters = res.Iterations
	}
	b.ReportMetric(float64(iters), "iterations")
	b.ReportMetric(ktAt5, "kendall-tau@5")
}

// BenchmarkTable3DatasetStats regenerates Table 3's kernel: counting
// triangles and 4-cliques of a dataset.
func BenchmarkTable3DatasetStats(b *testing.B) {
	g := dataset.Get("fb").Graph()
	var s dataset.Stats
	for i := 0; i < b.N; i++ {
		s = dataset.Measure(g)
	}
	b.ReportMetric(float64(s.Tri), "triangles")
	b.ReportMetric(float64(s.K4), "k4s")
}

// Table 4: iterations to convergence, SND vs AND, per decomposition.

func benchTable4(b *testing.B, inst inucleus.Instance) {
	var sndIters, andIters int
	for i := 0; i < b.N; i++ {
		sndIters = localhi.Snd(inst, localhi.Options{}).Iterations
		andIters = localhi.And(inst, localhi.Options{Notification: true}).Iterations
	}
	b.ReportMetric(float64(sndIters), "snd-iters")
	b.ReportMetric(float64(andIters), "and-iters")
	b.ReportMetric(float64(sndIters)/float64(andIters), "snd/and")
}

func BenchmarkTable4IterationsCore(b *testing.B)  { benchTable4(b, fbCore()) }
func BenchmarkTable4IterationsTruss(b *testing.B) { benchTable4(b, fbTruss()) }
func BenchmarkTable4IterationsN34(b *testing.B)   { benchTable4(b, fbN34()) }

// Table 5: runtime of each algorithm per decomposition; these benchmarks
// measure each algorithm's wall clock directly.

func benchAlg(b *testing.B, inst inucleus.Instance, alg string) {
	for i := 0; i < b.N; i++ {
		switch alg {
		case "peel":
			peel.Run(inst)
		case "snd":
			localhi.Snd(inst, localhi.Options{})
		case "and":
			localhi.And(inst, localhi.Options{Notification: true})
		}
	}
}

func BenchmarkTable5PeelCore(b *testing.B)  { benchAlg(b, fbCore(), "peel") }
func BenchmarkTable5SndCore(b *testing.B)   { benchAlg(b, fbCore(), "snd") }
func BenchmarkTable5AndCore(b *testing.B)   { benchAlg(b, fbCore(), "and") }
func BenchmarkTable5PeelTruss(b *testing.B) { benchAlg(b, fbTruss(), "peel") }
func BenchmarkTable5SndTruss(b *testing.B)  { benchAlg(b, fbTruss(), "snd") }
func BenchmarkTable5AndTruss(b *testing.B)  { benchAlg(b, fbTruss(), "and") }
func BenchmarkTable5PeelN34(b *testing.B)   { benchAlg(b, fbN34(), "peel") }
func BenchmarkTable5SndN34(b *testing.B)    { benchAlg(b, fbN34(), "snd") }
func BenchmarkTable5AndN34(b *testing.B)    { benchAlg(b, fbN34(), "and") }

// BenchmarkFig5Plateaus regenerates Figure 5's kernel: SND with τ
// trajectories, reporting the plateau fraction — the redundant work the
// notification mechanism skips.
func BenchmarkFig5Plateaus(b *testing.B) {
	inst := fbTruss()
	var plateau float64
	for i := 0; i < b.N; i++ {
		res := localhi.Snd(inst, localhi.Options{})
		cellSweeps := int64(res.Sweeps) * int64(inst.NumCells())
		plateau = float64(cellSweeps-res.Updates) / float64(cellSweeps)
	}
	b.ReportMetric(100*plateau, "plateau-%")
}

// BenchmarkE9ConvergenceBound regenerates the Theorem 3 study: degree
// levels versus observed iterations.
func BenchmarkE9ConvergenceBound(b *testing.B) {
	inst := fbCore()
	var levels, iters int
	for i := 0; i < b.N; i++ {
		levels = peel.Levels(inst).Count
		iters = localhi.Snd(inst, localhi.Options{}).Iterations
	}
	b.ReportMetric(float64(levels), "levels-bound")
	b.ReportMetric(float64(iters), "observed-iters")
	b.ReportMetric(float64(inst.NumCells()), "trivial-bound")
}

// BenchmarkE10Tradeoff regenerates the accuracy/runtime trade-off: a
// 3-sweep budgeted SND run, reporting the quality reached.
func BenchmarkE10Tradeoff(b *testing.B) {
	inst := fbTruss()
	exact := peel.Run(inst).Kappa
	var kt, ef float64
	for i := 0; i < b.N; i++ {
		res := localhi.Snd(inst, localhi.Options{MaxSweeps: 3})
		kt = metrics.KendallTauB(res.Tau, exact)
		ef = metrics.ExactFraction(res.Tau, exact)
	}
	b.ReportMetric(kt, "kendall-tau@3")
	b.ReportMetric(ef, "exact-frac@3")
}

// BenchmarkE11QueryDriven regenerates the query-driven scenario: core
// numbers of 16 query vertices from their 2-hop neighborhoods.
func BenchmarkE11QueryDriven(b *testing.B) {
	g := dataset.Get("hg").Graph()
	inst := inucleus.NewCore(g)
	exact := peel.Run(inst).Kappa
	queries := make([]uint32, 16)
	for i := range queries {
		queries[i] = uint32(i * 401)
	}
	var mre float64
	var touched int
	for i := 0; i < b.N; i++ {
		region := g.BFSWithin(queries, 2)
		cells := make([]int32, len(region))
		for j, v := range region {
			cells[j] = int32(v)
		}
		res := localhi.And(inst, localhi.Options{Subset: cells, Notification: true})
		est := make([]int32, len(queries))
		want := make([]int32, len(queries))
		for j, q := range queries {
			est[j] = res.Tau[q]
			want[j] = exact[q]
		}
		mre = metrics.MeanRelativeError(est, want)
		touched = len(region)
	}
	b.ReportMetric(mre, "mean-rel-err")
	b.ReportMetric(100*float64(touched)/float64(g.N()), "region-%")
}

// BenchmarkE12OrderAblation regenerates the Theorem 4 ablation: AND under
// the peeling order versus its reverse.
func BenchmarkE12OrderAblation(b *testing.B) {
	inst := fbCore()
	pr := peel.Run(inst)
	rev := make([]int32, len(pr.Order))
	for i, c := range pr.Order {
		rev[len(rev)-1-i] = c
	}
	var fwd, bwd int
	for i := 0; i < b.N; i++ {
		fwd = localhi.And(inst, localhi.Options{Order: pr.Order}).Iterations
		bwd = localhi.And(inst, localhi.Options{Order: rev}).Iterations
	}
	b.ReportMetric(float64(fwd), "peel-order-iters")
	b.ReportMetric(float64(bwd), "reverse-order-iters")
}

// BenchmarkE14HIndex compares the h-index implementations of §4.4.
func BenchmarkE14HIndexSort(b *testing.B)   { benchHIndex(b, nucleustest.HIndexSort) }
func BenchmarkE14HIndexLinear(b *testing.B) { benchHIndex(b, nucleustest.HIndexLinear) }

func benchHIndex(b *testing.B, f func([]int32) int32) {
	vals := make([]int32, 512)
	for i := range vals {
		vals[i] = int32((i * 7919) % 300)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(vals)
	}
}

// The BenchmarkStoredVsOnTheFly pair quantifies the §5 fork: the
// on-the-fly truss instance re-intersects adjacency lists every sweep,
// while the flat instance pays memory for re-iterating stored s-cliques.
func BenchmarkStoredVsOnTheFlyTruss(b *testing.B) {
	inst := fbTruss()
	for i := 0; i < b.N; i++ {
		localhi.And(inst, localhi.Options{Notification: true})
	}
}

func BenchmarkStoredVsOnTheFlyFlat(b *testing.B) {
	f := inucleus.NewFlatTruss(dataset.Get("fb").Graph(), 1)
	b.ReportMetric(float64(f.IndexBytes()), "index-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		localhi.And(f, localhi.Options{Notification: true})
	}
}

// BenchmarkHierarchyBuild measures materializing the truss hierarchy, the
// deliverable of the paper's title.
func BenchmarkHierarchyBuild(b *testing.B) {
	inst := fbTruss()
	kappa := peel.Run(inst).Kappa
	var nodes int
	for i := 0; i < b.N; i++ {
		nodes = hierarchy.Build(inst, kappa).NumNodes()
	}
	b.ReportMetric(float64(nodes), "nuclei")
}

// BenchmarkParallelSweeps measures goroutine-parallel SND at two worker
// counts (wall clock on this host; `experiments -exp fig1b` prints the
// measured Figure 1b table).
func BenchmarkParallelSweeps1(b *testing.B) { benchParallel(b, 1) }
func BenchmarkParallelSweeps4(b *testing.B) { benchParallel(b, 4) }

func benchParallel(b *testing.B, threads int) {
	inst := fbTruss()
	for i := 0; i < b.N; i++ {
		localhi.Snd(inst, localhi.Options{Threads: threads})
	}
}
