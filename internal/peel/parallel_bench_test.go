package peel

import (
	"runtime"
	"testing"

	"nucleus/internal/dataset"
	"nucleus/internal/nucleus"
)

// benchScaling times RunThreads at runtime.GOMAXPROCS(0) workers, so the
// worker axis is `go test -bench PeelScaling -cpu 1,2,4`. It gates on
// exact agreement with the sequential engine before timing — a scaling
// number for a wrong answer is worthless.
func benchScaling(b *testing.B, inst nucleus.Instance) {
	b.Helper()
	w := runtime.GOMAXPROCS(0)
	seq := Run(inst)
	par := RunThreads(inst, w)
	if par.MaxKappa != seq.MaxKappa {
		b.Fatalf("workers=%d: MaxKappa %d, sequential %d", w, par.MaxKappa, seq.MaxKappa)
	}
	for c := range seq.Kappa {
		if par.Kappa[c] != seq.Kappa[c] {
			b.Fatalf("workers=%d: κ(%d) = %d, sequential %d", w, c, par.Kappa[c], seq.Kappa[c])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunThreads(inst, w)
	}
}

// BenchmarkPeelScalingTruss is the favorable case for frontier
// parallelism: parallel bucket peeling of the bundled "fb" truss instance
// (planted communities, triangle-rich — wide frontiers).
func BenchmarkPeelScalingTruss(b *testing.B) {
	benchScaling(b, nucleus.NewFlatTruss(dataset.Get("fb").Graph(), 1))
}

// BenchmarkPeelScalingCore covers the unfavorable shape: k-core peeling
// has cheap per-cell work, so it bounds the overhead of the barrier
// merge rather than showing off speedup.
func BenchmarkPeelScalingCore(b *testing.B) {
	benchScaling(b, nucleus.NewCore(dataset.Get("fb").Graph()))
}
