package localhi

import (
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestNarrowWakeupsStress hunts the one wake-up the narrowed notification
// can lose: a co-member that is mid-update when its neighbor's index falls
// (kernel.go). Eight workers on heavy-tailed graphs make that race as
// likely as this package can; the result must equal peeling every time,
// because a plateau is only ever reported Converged after a full sweep that
// ignores the flags. The log line says how often that certification sweep
// had something to repair. Run under -race in CI.
func TestNarrowWakeupsStress(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	repaired, certs := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		inst := nucleus.NewCore(graph.RMAT(12, 8, 0.57, 0.19, 0.19, seed))
		want := peel.Run(inst).Kappa
		res := And(inst, Options{Threads: 8, Notification: true})
		if !res.Converged || !equalInt32(res.Tau, want) {
			t.Fatalf("seed %d: converged=%v, τ differs from peeling", seed, res.Converged)
		}
		// A certification sweep is the one that follows a zero-update
		// notification sweep; the run ends on the first clean one.
		for i := 1; i < len(res.SweepUpdates); i++ {
			if res.SweepUpdates[i-1] == 0 {
				certs++
				if res.SweepUpdates[i] > 0 {
					repaired++
				}
			}
		}
	}
	t.Logf("%d runs: %d certification sweeps, %d found an update to repair", seeds, certs, repaired)
}
