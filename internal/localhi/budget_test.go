package localhi

import (
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestAndNotificationRespectsSweepBudget is the regression test for the
// certification-sweep budget overrun: And with Notification used to run
// the certifying sweep (and the subsequent repair loop) without consulting
// MaxSweeps, so a bounded run could report Sweeps > MaxSweeps. Every
// bounded run must stay within budget and still return a valid
// approximation (τ ≥ κ pointwise).
func TestAndNotificationRespectsSweepBudget(t *testing.T) {
	graphs := map[string]*graph.Graph{
		// K6: τ starts at the degrees = κ, so the very first sweep is the
		// no-update plateau and the old code immediately overran a budget
		// of 1 with the certification sweep.
		"k6":  graph.Complete(6),
		"plc": graph.PowerLawCluster(300, 4, 0.5, 23),
		"gnm": graph.GnM(200, 900, 11),
	}
	for name, g := range graphs {
		for _, dec := range []string{"core", "truss"} {
			var inst nucleus.Instance
			if dec == "core" {
				inst = nucleus.NewCore(g)
			} else {
				inst = nucleus.NewTruss(g)
			}
			kappa := peel.Run(inst).Kappa
			full := And(inst, Options{Notification: true})
			if !full.Converged {
				t.Fatalf("%s/%s: unbounded run did not converge", name, dec)
			}
			for budget := 1; budget <= full.Sweeps+2; budget++ {
				for _, threads := range []int{1, 4} {
					res := And(inst, Options{
						Notification: true,
						MaxSweeps:    budget,
						Threads:      threads,
					})
					if res.Sweeps > budget {
						t.Fatalf("%s/%s budget=%d threads=%d: %d sweeps exceed the budget",
							name, dec, budget, threads, res.Sweeps)
					}
					if res.Converged && res.Sweeps > budget {
						t.Fatalf("%s/%s budget=%d: converged beyond budget", name, dec, budget)
					}
					for c, k := range kappa {
						if res.Tau[c] < k {
							t.Fatalf("%s/%s budget=%d: τ(%d)=%d below κ=%d — not a valid approximation",
								name, dec, budget, c, res.Tau[c], k)
						}
					}
				}
			}
		}
	}
}

// TestAndBudgetedPreserveStaysBounded covers the warm-start configuration
// (InitialTau + Notification, every update free to exit early and preserve
// its index) under a budget, the combination package dynamic uses for
// reconvergence after edits.
func TestAndBudgetedPreserveStaysBounded(t *testing.T) {
	g := graph.PowerLawCluster(400, 5, 0.4, 31)
	inst := nucleus.NewCore(g)
	kappa := peel.Run(inst).Kappa
	seed := make([]int32, len(kappa))
	for i, k := range kappa {
		seed[i] = k + 3
	}
	for budget := 1; budget <= 4; budget++ {
		res := And(inst, Options{
			Notification: true,
			InitialTau:   seed,
			MaxSweeps:    budget,
		})
		if res.Sweeps > budget {
			t.Fatalf("budget=%d: %d sweeps", budget, res.Sweeps)
		}
		for c, k := range kappa {
			if res.Tau[c] < k {
				t.Fatalf("budget=%d: τ(%d)=%d below κ=%d", budget, c, res.Tau[c], k)
			}
		}
	}
}
