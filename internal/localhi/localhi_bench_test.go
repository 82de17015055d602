package localhi

import (
	"fmt"
	"testing"

	"nucleus/internal/dataset"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// benchGraph is the bundled truss benchmark dataset: the "fb" analogue of
// the paper's Table 3 (planted communities; triangle- and K4-rich).
func benchGraph() *graph.Graph { return dataset.Get("fb").Graph() }

func benchTrussInstance() nucleus.Instance { return nucleus.NewTruss(benchGraph()) }

func benchIndexedTrussInstance() nucleus.Instance {
	return nucleus.NewFlatTruss(benchGraph(), 1)
}

// reportWork attaches the s-clique visit count as a custom benchmark
// metric, so a -bench run can compare the paid work across kernel
// variants. The timer stops before anything else: b.Helper() and
// b.ReportMetric() both allocate, and at small -benchtime (1x) those
// framework allocations would otherwise leak into allocs/op.
func reportWork(b *testing.B, visits int64) {
	b.StopTimer()
	b.Helper()
	b.ReportMetric(float64(visits)/float64(b.N), "work-visits/op")
}

// reportConvergence attaches the per-run sweep and τ-decrement counts —
// the convergence metrics behind the anytime progress numbers quoted in
// docs/PERFORMANCE.md.
func reportConvergence(b *testing.B, sweeps int, updates int64) {
	b.StopTimer() // idempotent; see reportWork
	b.Helper()
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
	b.ReportMetric(float64(updates)/float64(b.N), "updates/op")
}

func benchSnd(b *testing.B, inst nucleus.Instance, opts Options) {
	b.Helper()
	var visits, updates int64
	var sweeps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Snd(inst, opts)
		visits += res.WorkVisits
		sweeps += res.Sweeps
		updates += res.Updates
	}
	reportWork(b, visits)
	reportConvergence(b, sweeps, updates)
}

func benchAnd(b *testing.B, inst nucleus.Instance, opts Options) {
	b.Helper()
	var visits, updates int64
	var sweeps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := And(inst, opts)
		visits += res.WorkVisits
		sweeps += res.Sweeps
		updates += res.Updates
	}
	reportWork(b, visits)
	reportConvergence(b, sweeps, updates)
}

// SND on the on-the-fly instance (each swept row rediscovered by a sorted
// merge): the baseline the flat index is measured against.
func BenchmarkSndTruss(b *testing.B) { benchSnd(b, benchTrussInstance(), Options{}) }

// SND on the flat-indexed instance (stored rows, scanned in place).
func BenchmarkSndTrussIndexed(b *testing.B) { benchSnd(b, benchIndexedTrussInstance(), Options{}) }

func BenchmarkAndTruss(b *testing.B) { benchAnd(b, benchTrussInstance(), Options{}) }

func BenchmarkAndTrussIndexed(b *testing.B) { benchAnd(b, benchIndexedTrussInstance(), Options{}) }

func BenchmarkAndTrussNotification(b *testing.B) {
	benchAnd(b, benchTrussInstance(), Options{Notification: true})
}

func BenchmarkAndTrussNotificationIndexed(b *testing.B) {
	benchAnd(b, benchIndexedTrussInstance(), Options{Notification: true})
}

// BenchmarkAndN34Indexed is AND with notification on the stored (3,4)
// rows of the same graph: co-arity 3, where a fall wakes co-members only
// through the 4-cliques the kernel read above its new index.
func BenchmarkAndN34Indexed(b *testing.B) {
	benchAnd(b, nucleus.NewFlatN34(benchGraph(), 1), Options{Notification: true})
}

// BenchmarkAndN34Discovered is the over-budget path of lib_nucleus/alt: AND
// with notification over the (3,4) rows discovered on every sweep (Build
// under budget 0), on that workload's input (12 × 80 planted communities,
// round 0 of seed 1), at one and two threads. Each row starts from its
// triangle's vertices, looked up by id in the graph's triangle index.
func BenchmarkAndN34Discovered(b *testing.B) {
	g := graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	inst, _ := nucleus.Build(g, nucleus.FamilyN34, 0, 1)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) { benchAnd(b, inst, Options{Threads: p, Notification: true}) })
	}
}

// BenchmarkSndTrussServeBudget8 is serve_query's miss without the server:
// SND bounded at 8 sweeps, one thread, over the stored truss rows of its
// input (48 planted communities of 80 vertices).
func BenchmarkSndTrussServeBudget8(b *testing.B) {
	g := graph.PlantedCommunities(48, 80, 0.3, 4800, 1)
	benchSnd(b, nucleus.NewFlatTruss(g, 1), Options{Threads: 1, MaxSweeps: 8})
}

// BenchmarkAndCoreRMAT14 is lib_core's AND (notification, one thread) on
// its input, RMAT(14, 8): co-arity 1, the graph's own CSR.
func BenchmarkAndCoreRMAT14(b *testing.B) {
	g := graph.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	benchAnd(b, nucleus.NewCore(g), Options{Threads: 1, Notification: true})
}

func BenchmarkPeelTruss(b *testing.B) {
	inst := benchTrussInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peel.Run(inst)
	}
}

func BenchmarkPeelTrussIndexed(b *testing.B) {
	inst := benchIndexedTrussInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peel.Run(inst)
	}
}

func BenchmarkAndBudget3(b *testing.B) {
	inst := benchTrussInstance()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		And(inst, Options{MaxSweeps: 3})
	}
}

// benchKernel measures one first sweep (τ = s-degrees) over every cell of
// inst's rows; allocs/op must be exactly zero once the row buffer has
// grown (TestFusedKernelZeroAlloc and TestDiscoveredRowsZeroAlloc are the
// gates).
func benchKernel(b *testing.B, inst nucleus.Instance) {
	b.Helper()
	rows := inst.Rows()
	tau := inst.Degrees()
	sc := &newScratches(1, tau, 0)[0]
	n := int32(inst.NumCells())
	var visits int64
	for c := int32(0); c < n; c++ { // grow the row buffer
		update(&rows, c, tau, sc, tau[c], false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := int32(0); c < n; c++ {
			_, v, _ := update(&rows, c, tau, sc, tau[c], false)
			visits += v
		}
	}
	reportWork(b, visits)
}

func BenchmarkSweepKernelFused(b *testing.B) { benchKernel(b, benchIndexedTrussInstance()) }

// BenchmarkSweepKernelDiscovered is the same single sweep over the same
// rows handed out as discovered ones, copied into the worker's buffer: the
// two benchmarks differ in the row source alone.
func BenchmarkSweepKernelDiscovered(b *testing.B) {
	benchKernel(b, nucleustest.Discovered(benchIndexedTrussInstance()))
}

// BenchmarkAndLibNucleus is lib_nucleus's AND without the library around
// it: notification over the stored truss and (3,4) rows of that workload's
// input (12 × 80 planted communities, round 0 of seed 1), and lib_core's
// k-core of RMAT(14, 8), at one and two threads.
func BenchmarkAndLibNucleus(b *testing.B) {
	g := graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	for _, tc := range []struct {
		name string
		inst nucleus.Instance
	}{
		{"n34", nucleus.NewFlatN34(g, 1)},
		{"truss", nucleus.NewFlatTruss(g, 1)},
		{"core", nucleus.NewCore(graph.RMAT(14, 8, 0.57, 0.19, 0.19, 1))},
	} {
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/P=%d", tc.name, p), func(b *testing.B) {
				benchAnd(b, tc.inst, Options{Threads: p, Notification: true})
			})
		}
	}
}
