package peel

import (
	"runtime"
	"testing"

	"nucleus/internal/nucleus"
)

// benchScaling times RunThreads at runtime.GOMAXPROCS(0) workers, so the
// worker axis is `go test -bench PeelScaling -cpu 1,2,4`. It gates on
// exact agreement with the reference peel before timing — a scaling
// number for a wrong answer is worthless.
func benchScaling(b *testing.B, inst nucleus.Instance) {
	b.Helper()
	w := runtime.GOMAXPROCS(0)
	checkKappa(b, "RunThreads", inst, RunThreads(inst, w), refPeel(inst))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunThreads(inst, w)
	}
}

// The scaling pair times the frontier engine where it lives: the
// on-the-fly instances of BenchmarkPeelCore's planted graph (a stored
// instance would time the sequential engine at every -cpu).

// BenchmarkPeelScalingTruss is the cheap-cell case: a triangle search per
// edge, where the barrier per sub-round is most of the cost.
func BenchmarkPeelScalingTruss(b *testing.B) {
	_, planted := peelBenchInputs()
	benchScaling(b, nucleus.NewTruss(planted))
}

// BenchmarkPeelScalingN34 is the case that keeps the frontier engine: a
// 4-clique search per triangle is enough work per cell to split.
func BenchmarkPeelScalingN34(b *testing.B) {
	_, planted := peelBenchInputs()
	benchScaling(b, nucleus.NewN34(planted))
}
