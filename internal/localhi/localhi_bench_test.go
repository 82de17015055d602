package localhi

import (
	"testing"

	"nucleus/internal/dataset"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
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

// SND on the on-the-fly instance (sorted-merge intersection per triangle
// per sweep): the baseline the flat index is measured against.
func BenchmarkSndTruss(b *testing.B) { benchSnd(b, benchTrussInstance(), Options{}) }

// SND on the flat-indexed instance (fused array-scan kernel).
func BenchmarkSndTrussIndexed(b *testing.B) { benchSnd(b, benchIndexedTrussInstance(), Options{}) }

func BenchmarkAndTruss(b *testing.B) { benchAnd(b, benchTrussInstance(), Options{}) }

func BenchmarkAndTrussIndexed(b *testing.B) { benchAnd(b, benchIndexedTrussInstance(), Options{}) }

func BenchmarkAndTrussNotification(b *testing.B) {
	benchAnd(b, benchTrussInstance(), Options{Notification: true})
}

func BenchmarkAndTrussNotificationIndexed(b *testing.B) {
	benchAnd(b, benchIndexedTrussInstance(), Options{Notification: true})
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

// benchKernel measures one first sweep (τ = s-degrees) over every cell
// through the kernel a run on inst would pick; allocs/op must be exactly
// zero (Test{Fused,Generic}KernelZeroAlloc are the gates).
func benchKernel(b *testing.B, inst nucleus.Instance) {
	b.Helper()
	k := kernelFor(inst)
	tau := inst.Degrees()
	sc := &newScratches(1, tau)[0]
	n := int32(inst.NumCells())
	var visits int64
	k.update(0, tau, sc, tau[0], false) // bind the generic kernel's visitor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := int32(0); c < n; c++ {
			_, v := k.update(c, tau, sc, tau[c], false)
			visits += v
		}
	}
	reportWork(b, visits)
}

func BenchmarkSweepKernelFused(b *testing.B) { benchKernel(b, benchIndexedTrussInstance()) }

// BenchmarkSweepKernelGeneric is the same single sweep over the same rows
// through the generic kernel: the wrapper hides FlatIncidence, so the
// two benchmarks differ in the kernel alone (VisitSCliques dispatch per
// s-clique against the fused row scan), and Flat's VisitSCliques allocates
// nothing, so allocs/op is the kernel's own and must be zero as well.
func BenchmarkSweepKernelGeneric(b *testing.B) {
	benchKernel(b, hideFlat(benchIndexedTrussInstance()))
}
