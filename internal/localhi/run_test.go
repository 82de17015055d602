package localhi

import (
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

func TestParseAlgorithm(t *testing.T) {
	for s, want := range map[string]Algorithm{"": AND, "and": AND, "snd": SND, "peel": Peel} {
		if got, err := ParseAlgorithm(s); err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for a := AND; a <= Peel; a++ {
		if got, err := ParseAlgorithm(a.String()); err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%v.String()) = %v, %v", a, got, err)
		}
	}
	_, err := ParseAlgorithm("AND")
	if want := `unknown algorithm "AND" (want and, snd or peel)`; err == nil || err.Error() != want {
		t.Fatalf("ParseAlgorithm(AND) = %v, want %q", err, want)
	}
}

// TestRunMatchesEngines holds Run to a dispatch and nothing more, over
// every family: Run(Peel) is peel.Run's κ, converged, and Run(SND) and
// Run(AND) are Snd and And under the same options — the same τ after every
// sweep, the same Sweeps and Iterations. At two threads SND, whose sweeps
// read only the previous sweep's τ, still repeats sweep for sweep; AND's
// workers read what the other already wrote, so there only its converged κ
// can be compared.
func TestRunMatchesEngines(t *testing.T) {
	g := graph.PlantedCommunities(5, 30, 0.4, 150, 1)
	engines := map[Algorithm]func(nucleus.Instance, Options) *Result{SND: Snd, AND: And}
	for _, fam := range []nucleus.Family{nucleus.FamilyCore, nucleus.FamilyTruss, nucleus.FamilyN34} {
		inst, _ := nucleus.Build(g, fam, -1, 1)
		kappa := peel.Run(inst).Kappa
		for _, threads := range []int{1, 2} {
			if pr := Run(inst, Peel, Options{Threads: threads}); !pr.Converged || !slices.Equal(pr.Tau, kappa) {
				t.Fatalf("%v threads=%d: Run(Peel) converged=%v, τ differs from peel.Run's κ", fam, threads, pr.Converged)
			}
			for alg, engine := range engines {
				var gotSums, wantSums []uint64
				opts := func(sums *[]uint64) Options {
					return Options{Threads: threads, Notification: alg == AND, OnSweep: hashSweeps(sums)}
				}
				got, want := Run(inst, alg, opts(&gotSums)), engine(inst, opts(&wantSums))
				if !got.Converged || !slices.Equal(got.Tau, kappa) {
					t.Fatalf("%v threads=%d: Run(%v) converged=%v, τ differs from peel.Run's κ", fam, threads, alg, got.Converged)
				}
				if threads > 1 && alg == AND {
					continue
				}
				if !slices.Equal(gotSums, wantSums) || got.Sweeps != want.Sweeps || got.Iterations != want.Iterations {
					t.Fatalf("%v threads=%d: Run(%v) swept τ %x (%d sweeps, %d iterations), %v %x (%d, %d)",
						fam, threads, alg, gotSums, got.Sweeps, got.Iterations, alg, wantSums, want.Sweeps, want.Iterations)
				}
			}
		}
	}
}
