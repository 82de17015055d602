package localhi

import (
	"math/rand"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/hindex"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// The §4.4 early exit — stop reading a cell's s-cliques once cur of them
// have ρ ≥ cur, which preserves the current index — is part of the kernel
// contract (kernel.go), not an option. These tests pin the contract on the
// kernel itself.

// TestPreserveExactness: for any τ array and any cur, the kernel returns
// exactly min(cur, H(ρ list)) — H computed by hindex.Linear over the ρ list
// gathered from the cell's row (nucleustest.Groups) — over stored rows and
// over the same rows discovered, and pays the same visits on both, never
// more than the row holds. One scratch per side serves every call, so the
// counting array is as dirty as a sweep leaves it.
func TestPreserveExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 12; round++ {
		n := 12 + rng.Intn(20)
		g := graph.GnM(n, 3*n+rng.Intn(3*n), rng.Int63())
		for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewFlatTruss(g, 1), nucleus.NewFlatN34(g, 1)} {
			deg := inst.Degrees()
			tau := make([]int32, len(deg))
			var maxDeg int32
			for c, d := range deg {
				tau[c] = int32(rng.Intn(int(d) + 2)) // any value, not only a valid τ
				maxDeg = max(maxDeg, d)
			}
			stored, discovered := inst.Rows(), nucleustest.Discovered(inst).Rows()
			top := []int32{maxDeg + 2} // the largest cur asked below sizes the scratch
			scS, scD := &newScratches(1, top, 0)[0], &newScratches(1, top, 0)[0]
			for c := int32(0); c < int32(len(deg)); c++ {
				var rhos []int32
				for _, others := range nucleustest.Groups(inst, c) {
					rho := tau[others[0]]
					for _, d := range others[1:] {
						rho = min(rho, tau[d])
					}
					rhos = append(rhos, rho)
				}
				h := hindex.Linear(rhos)
				for cur := int32(0); cur <= maxDeg+2; cur++ {
					gotS, visS, _ := update(&stored, c, tau, scS, cur, false)
					gotD, visD, _ := update(&discovered, c, tau, scD, cur, true)
					if want := min(cur, h); gotS != want || gotD != want {
						t.Fatalf("(%d,%d) cell %d cur %d: stored %d, discovered %d, want min(cur, H=%d)",
							inst.R(), inst.S(), c, cur, gotS, gotD, h)
					}
					if visS != visD || visS > int64(len(rhos)) || (visS < int64(len(rhos)) && gotS != cur) {
						t.Fatalf("(%d,%d) cell %d cur %d: visits stored %d, discovered %d, row %d, result %d",
							inst.R(), inst.S(), c, cur, visS, visD, len(rhos), gotS)
					}
				}
			}
		}
	}
}

// TestPreserveSavesVisits: on a plateau-heavy graph the early exit pays for
// fewer s-clique visits than reading every row in every sweep would.
func TestPreserveSavesVisits(t *testing.T) {
	g := graph.PowerLawCluster(800, 6, 0.5, 61)
	for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g), nucleus.NewFlatTruss(g, 1)} {
		var rows int64
		for _, d := range inst.Degrees() {
			rows += int64(d)
		}
		for name, res := range map[string]*Result{"snd": Snd(inst, Options{}), "and": And(inst, Options{})} {
			if !res.Converged {
				t.Fatalf("(%d,%d) %s did not converge", inst.R(), inst.S(), name)
			}
			if full := rows * int64(res.Sweeps); res.WorkVisits >= full {
				t.Errorf("(%d,%d) %s: %d visits in %d sweeps, full rows would be %d — the early exit saved nothing",
					inst.R(), inst.S(), name, res.WorkVisits, res.Sweeps, full)
			}
		}
	}
}

// TestPreserveParallel: exactness holds under concurrent sweeps.
func TestPreserveParallel(t *testing.T) {
	g := graph.PowerLawCluster(400, 5, 0.4, 63)
	inst := nucleus.NewTruss(g)
	want := peel.Run(inst).Kappa
	res := And(inst, Options{Threads: 4, Notification: true})
	if !equalInt32(res.Tau, want) {
		t.Fatal("parallel run with early exits is wrong")
	}
}

// TestPreserveZeroCells: cells at τ=0 skip enumeration entirely.
func TestPreserveZeroCells(t *testing.T) {
	g := graph.Star(6) // no triangles: all truss τ0 = 0
	for _, inst := range []nucleus.Instance{nucleus.NewTruss(g), nucleus.NewFlatTruss(g, 1)} {
		for name, res := range map[string]*Result{"snd": Snd(inst, Options{}), "and": And(inst, Options{Notification: true})} {
			if res.WorkVisits != 0 {
				t.Fatalf("%s: zero cells still visited %d s-cliques", name, res.WorkVisits)
			}
			for _, v := range res.Tau {
				if v != 0 {
					t.Fatalf("%s: wrong fixpoint", name)
				}
			}
		}
	}
}
