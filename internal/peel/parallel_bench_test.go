package peel

import (
	"runtime"
	"testing"

	"nucleus/internal/nucleus"
)

// benchScaling times RunThreads at runtime.GOMAXPROCS(0) workers, so the
// worker axis is `go test -bench PeelScaling -cpu 1,2`: the peel is
// sequential, so the axis should read flat. It gates on exact agreement
// with the reference peel before timing — a number for a wrong answer is
// worthless.
func benchScaling(b *testing.B, inst nucleus.Instance) {
	b.Helper()
	w := runtime.GOMAXPROCS(0)
	checkKappa(b, "RunThreads", inst, RunThreads(inst, w), refPeel(inst))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunThreads(inst, w)
	}
}

// The pair times the peel over discovered rows: the on-the-fly instances
// of BenchmarkPeelCore's planted graph, whose rows are found again for
// every peeled cell.

// BenchmarkPeelScalingTruss is the cheap-cell case: a triangle search per
// edge.
func BenchmarkPeelScalingTruss(b *testing.B) {
	_, planted := peelBenchInputs()
	benchScaling(b, nucleus.NewTruss(planted))
}

// BenchmarkPeelScalingN34 is the expensive-cell case: a 4-clique search
// per triangle.
func BenchmarkPeelScalingN34(b *testing.B) {
	_, planted := peelBenchInputs()
	benchScaling(b, nucleus.NewN34(planted))
}
