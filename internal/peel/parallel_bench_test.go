package peel

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"nucleus/internal/dataset"
	"nucleus/internal/nucleus"
)

// benchWorkers returns the worker-count axis for the scaling benchmarks.
// cmd/benchsweep sets NUCLEUS_PEEL_WORKERS (comma-separated) to control
// the sweep; the default covers the usual doubling ladder.
func benchWorkers() []int {
	spec := os.Getenv("NUCLEUS_PEEL_WORKERS")
	if spec == "" {
		spec = "1,2,4,8"
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err == nil && n >= 1 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// benchScaling runs RunThreads sub-benchmarks across the worker axis,
// gating each worker count on exact agreement with the sequential engine
// before timing — a scaling number for a wrong answer is worthless.
func benchScaling(b *testing.B, inst nucleus.Instance) {
	b.Helper()
	seq := Run(inst)
	for _, w := range benchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
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
		})
	}
}

// BenchmarkPeelScalingTruss is the multi-core scaling row of the bench
// sweep: parallel bucket peeling of the bundled "fb" truss instance
// (planted communities, triangle-rich — wide frontiers, the favorable
// case for frontier parallelism).
func BenchmarkPeelScalingTruss(b *testing.B) {
	benchScaling(b, nucleus.NewFlatTruss(dataset.Get("fb").Graph(), 1))
}

// BenchmarkPeelScalingCore covers the unfavorable shape: k-core peeling
// has cheap per-cell work, so it bounds the overhead of the barrier
// merge rather than showing off speedup.
func BenchmarkPeelScalingCore(b *testing.B) {
	benchScaling(b, nucleus.NewCore(dataset.Get("fb").Graph()))
}
