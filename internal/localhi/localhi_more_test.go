package localhi

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestTrussToyFirstSweep checks the running truss example of §4: edge ab
// of the TrussToy graph sits in four triangles and its first h-index
// update follows Definition 6 exactly.
func TestTrussToyFirstSweep(t *testing.T) {
	g := graph.TrussToy()
	inst := nucleus.NewTruss(g)
	deg := inst.Degrees()
	ab, ok := g.EdgeID(0, 1)
	if !ok {
		t.Fatal("edge ab missing")
	}
	if deg[ab] != 4 {
		t.Fatalf("d3(ab) = %d, want 4 (triangles abc, abd, abe, abi)", deg[ab])
	}
	// Manual Definition 6 for ab against τ0 = triangle counts.
	var want []int32
	inst.VisitSCliques(int32(ab), func(others []int32) bool {
		rho := deg[others[0]]
		if deg[others[1]] < rho {
			rho = deg[others[1]]
		}
		want = append(want, rho)
		return true
	})
	if len(want) != 4 {
		t.Fatalf("ab has %d s-cliques", len(want))
	}
	var got int32 = -1
	Snd(inst, Options{MaxSweeps: 1, OnSweep: func(_ int, tau []int32) {
		got = tau[ab]
	}})
	// H of the manual ρ list must equal the sweep's result.
	h := int32(0)
	for k := int32(len(want)); k >= 1; k-- {
		cnt := int32(0)
		for _, v := range want {
			if v >= k {
				cnt++
			}
		}
		if cnt >= k {
			h = k
			break
		}
	}
	if got != h {
		t.Fatalf("τ1(ab) = %d, manual H = %d", got, h)
	}
}

// TestSweepUpdatesDecay: the per-sweep update counts are recorded, sum to
// Updates, and the final entry is zero (the convergence-detecting sweep).
func TestSweepUpdatesDecay(t *testing.T) {
	g := graph.PowerLawCluster(400, 5, 0.5, 87)
	inst := nucleus.NewCore(g)
	res := Snd(inst, Options{})
	if len(res.SweepUpdates) != res.Sweeps {
		t.Fatalf("sweep updates %d entries, %d sweeps", len(res.SweepUpdates), res.Sweeps)
	}
	var total int64
	for _, u := range res.SweepUpdates {
		total += u
	}
	if total != res.Updates {
		t.Fatalf("sweep updates sum %d, total %d", total, res.Updates)
	}
	if res.SweepUpdates[len(res.SweepUpdates)-1] != 0 {
		t.Fatal("final sweep should have no updates")
	}
	if res.SweepUpdates[0] <= 0 {
		t.Fatal("first sweep should have updates")
	}
}

// TestUpdateRateTracksAccuracy: the ground-truth-free update rate and the
// true exact-fraction improve together — the trade-off signal of §1.2.
func TestUpdateRateTracksAccuracy(t *testing.T) {
	g := graph.PowerLawCluster(600, 5, 0.5, 89)
	inst := nucleus.NewCore(g)
	kappa := peel.Run(inst).Kappa
	var exactAt []float64
	res := Snd(inst, Options{OnSweep: func(_ int, tau []int32) {
		match := 0
		for i := range tau {
			if tau[i] == kappa[i] {
				match++
			}
		}
		exactAt = append(exactAt, float64(match)/float64(len(tau)))
	}})
	// By the time the update rate first drops below 1%, accuracy must
	// already be high (>90% exact).
	for s := 1; s <= res.Sweeps; s++ {
		if float64(res.SweepUpdates[s-1])/float64(inst.NumCells()) < 0.01 {
			if exactAt[s-1] < 0.9 {
				t.Fatalf("low update rate at sweep %d but only %.2f exact", s, exactAt[s-1])
			}
			break
		}
	}
}

// TestThreadsExceedCells: more workers than cells must not break.
func TestThreadsExceedCells(t *testing.T) {
	g := graph.Complete(4)
	inst := nucleus.NewCore(g)
	res := Snd(inst, Options{Threads: 64})
	for _, k := range res.Tau {
		if k != 3 {
			t.Fatalf("K4 τ = %v", res.Tau)
		}
	}
}

// TestSubsetWithOrder: Subset takes precedence over Order.
func TestSubsetWithOrder(t *testing.T) {
	g := graph.Complete(6)
	inst := nucleus.NewCore(g)
	res := And(inst, Options{Subset: []int32{0, 1}, Order: []int32{5, 4, 3, 2, 1, 0}})
	// Only cells 0 and 1 recomputed; all cells of K6 stay at 5 anyway.
	for _, k := range res.Tau {
		if k != 5 {
			t.Fatalf("τ = %v", res.Tau)
		}
	}
}

// TestWarmStartBelowDegreesClamped: InitialTau above the s-degree is
// clamped down (H cannot exceed the s-clique count).
func TestWarmStartClamp(t *testing.T) {
	g := graph.Figure2()
	inst := nucleus.NewCore(g)
	huge := []int32{100, 100, 100, 100, 100, 100}
	res := And(inst, Options{InitialTau: huge})
	want := []int32{1, 2, 2, 2, 1, 1}
	if !equalInt32(res.Tau, want) {
		t.Fatalf("τ = %v, want %v", res.Tau, want)
	}
}

// TestMonotoneUnderEdgeAddition: adding edges never lowers κ (the
// supergraph monotonicity the warm-start maintenance relies on).
func TestMonotoneUnderEdgeAddition(t *testing.T) {
	err := quick.Check(func(seed int64, mRaw uint8) bool {
		n := 20
		m := int(mRaw%60) + 5
		g := graph.GnM(n, m, seed)
		kappa := peel.Run(nucleus.NewCore(g)).Kappa
		// Add 3 fresh edges.
		rng := rand.New(rand.NewSource(seed + 7))
		edges := g.Edges()
		for len(edges) < m+3 {
			u := uint32(rng.Intn(n))
			v := uint32(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				edges = append(edges, [2]uint32{u, v})
			}
		}
		g2 := graph.Build(n, edges)
		kappa2 := peel.Run(nucleus.NewCore(g2)).Kappa
		for i := range kappa {
			if kappa2[i] < kappa[i] {
				return false
			}
			if kappa2[i] > kappa[i]+3 {
				return false // ≤1 per inserted edge
			}
		}
		return true
	}, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(34))})
	if err != nil {
		t.Fatal(err)
	}
}
