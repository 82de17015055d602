package peel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

// naiveCore computes core numbers by literal repeated minimum-degree
// removal, the defining process.
func naiveCore(g *graph.Graph) []int32 {
	n := g.N()
	deg := make([]int32, n)
	removed := make([]bool, n)
	kappa := make([]int32, n)
	for u := 0; u < n; u++ {
		deg[u] = int32(g.Degree(uint32(u)))
	}
	k := int32(0)
	for iter := 0; iter < n; iter++ {
		best := -1
		for u := 0; u < n; u++ {
			if !removed[u] && (best < 0 || deg[u] < deg[best]) {
				best = u
			}
		}
		if deg[best] > k {
			k = deg[best]
		}
		kappa[best] = k
		removed[best] = true
		for _, v := range g.Neighbors(uint32(best)) {
			if !removed[v] {
				deg[v]--
			}
		}
	}
	return kappa
}

func TestCoreCompleteGraph(t *testing.T) {
	g := graph.Complete(7)
	res := Run(nucleus.NewCore(g))
	for v, k := range res.Kappa {
		if k != 6 {
			t.Fatalf("K7 core(%d) = %d, want 6", v, k)
		}
	}
	if res.MaxKappa != 6 {
		t.Fatalf("max kappa = %d", res.MaxKappa)
	}
}

func TestCoreFigure2(t *testing.T) {
	// Paper Figure 2: κ₂ = {a:1, b:2, c:2, d:2, e:1, f:1}.
	g := graph.Figure2()
	res := Run(nucleus.NewCore(g))
	want := []int32{1, 2, 2, 2, 1, 1}
	for v := range want {
		if res.Kappa[v] != want[v] {
			t.Fatalf("core numbers = %v, want %v", res.Kappa, want)
		}
	}
}

func TestCoreCliqueChain(t *testing.T) {
	// Three K5s joined by bridges: every clique vertex has core number 4.
	g := graph.CliqueChain(3, 5)
	res := Run(nucleus.NewCore(g))
	for v, k := range res.Kappa {
		if k != 4 {
			t.Fatalf("core(%d) = %d, want 4", v, k)
		}
	}
}

func TestCoreStarAndPath(t *testing.T) {
	star := Run(nucleus.NewCore(graph.Star(9)))
	for _, k := range star.Kappa {
		if k != 1 {
			t.Fatalf("star core = %v", star.Kappa)
		}
	}
	path := Run(nucleus.NewCore(graph.Path(9)))
	for _, k := range path.Kappa {
		if k != 1 {
			t.Fatalf("path core = %v", path.Kappa)
		}
	}
}

func TestCoreMatchesNaiveQuick(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		got := Run(nucleus.NewCore(g)).Kappa
		want := naiveCore(g)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	})
}

func TestPeelOrderNonDecreasing(t *testing.T) {
	g := graph.PowerLawCluster(300, 4, 0.5, 13)
	res := Run(nucleus.NewCore(g))
	if len(res.Order) != g.N() {
		t.Fatalf("order length %d", len(res.Order))
	}
	for i := 1; i < len(res.Order); i++ {
		if res.Kappa[res.Order[i]] < res.Kappa[res.Order[i-1]] {
			t.Fatalf("peeling order not non-decreasing in κ at %d", i)
		}
	}
}

func TestTrussCompleteGraph(t *testing.T) {
	// K6: every edge is in 4 triangles and the whole graph peels uniformly:
	// truss number 4 for all edges (using the paper's k = triangle count
	// convention).
	g := graph.Complete(6)
	res := Run(nucleus.NewTruss(g))
	for e, k := range res.Kappa {
		if k != 4 {
			t.Fatalf("K6 truss(%d) = %d, want 4", e, k)
		}
	}
}

func TestTrussFigure3Style(t *testing.T) {
	// Nucleus34Toy: K4 {a,b,c,d} glued to K5 {c,d,e,f,h} plus pendant g.
	// Edge gh is in no triangle: truss 0. Edges inside the K5 have truss 3.
	g := graph.Nucleus34Toy()
	res := Run(nucleus.NewTruss(g))
	gh, ok := g.EdgeID(6, 7)
	if !ok {
		t.Fatal("missing edge gh")
	}
	if res.Kappa[gh] != 0 {
		t.Fatalf("truss(gh) = %d, want 0", res.Kappa[gh])
	}
	ef, _ := g.EdgeID(4, 5)
	if res.Kappa[ef] != 3 {
		t.Fatalf("truss(ef) = %d, want 3", res.Kappa[ef])
	}
}

func TestN34CompleteGraph(t *testing.T) {
	// K7: every triangle is in 4 four-cliques; peeling is uniform, κ = 4.
	g := graph.Complete(7)
	res := Run(nucleus.NewN34(g))
	for c, k := range res.Kappa {
		if k != 4 {
			t.Fatalf("K7 (3,4) kappa(%d) = %d, want 4", c, k)
		}
	}
}

func TestN34ToySeparateNuclei(t *testing.T) {
	// In the Figure 3 toy, triangles inside the K4 block get κ = 1, and
	// triangles of the K5 block get κ = 2; triangles touching g get 0.
	g := graph.Nucleus34Toy()
	inst := nucleus.NewN34(g)
	res := Run(inst)
	for c := int32(0); c < int32(inst.NumCells()); c++ {
		vs := inst.CellVertices(c, nil)
		inK4 := vs[0] <= 3 && vs[1] <= 3 && vs[2] <= 3
		allK5 := true
		for _, v := range vs {
			if v != 2 && v != 3 && v != 4 && v != 5 && v != 7 {
				allK5 = false
			}
		}
		switch {
		case inK4 && res.Kappa[c] != 1:
			t.Fatalf("K4-block triangle %v κ = %d, want 1", vs, res.Kappa[c])
		case allK5 && res.Kappa[c] != 2:
			t.Fatalf("K5-block triangle %v κ = %d, want 2", vs, res.Kappa[c])
		}
	}
}

func TestHyperMatchesSpecialized(t *testing.T) {
	// Peeling the explicit hypergraph must agree with the on-the-fly
	// instances for (1,2) — cell ids coincide (vertex order).
	quickGraphs(t, func(g *graph.Graph) bool {
		a := Run(nucleus.NewCore(g)).Kappa
		b := Run(nucleustest.NewHyper(g, 1, 2)).Kappa
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	})
}

func TestHyper25(t *testing.T) {
	// Exotic instance (2,5): cells are edges, s-cliques are 5-cliques.
	// In K6 every edge lies in C(4,3) = 4 five-cliques and peeling is
	// uniform: κ = 4 for all edges.
	g := graph.Complete(6)
	res := Run(nucleustest.NewHyper(g, 2, 5))
	for _, k := range res.Kappa {
		if k != 4 {
			t.Fatalf("(2,5) on K6: κ = %v", res.Kappa)
		}
	}
}

func TestLevelsFigure4(t *testing.T) {
	// The LevelsToy is built to produce 4 levels for (1,2).
	g := graph.LevelsToy()
	res := Levels(nucleus.NewCore(g))
	if res.Count != 4 {
		t.Fatalf("levels = %d (sizes %v), want 4", res.Count, res.Sizes)
	}
	if res.Sizes[0] != 1 || res.Sizes[1] != 1 || res.Sizes[2] != 2 || res.Sizes[3] != 3 {
		t.Fatalf("level sizes = %v, want [1 1 2 3]", res.Sizes)
	}
	if res.Level[0] != 0 || res.Level[1] != 1 {
		t.Fatalf("levels of a,b = %d,%d", res.Level[0], res.Level[1])
	}
}

func TestLevelsPartition(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		inst := nucleus.NewCore(g)
		res := Levels(inst)
		total := 0
		for _, s := range res.Sizes {
			if s == 0 {
				return false // empty level
			}
			total += s
		}
		if total != inst.NumCells() {
			return false
		}
		for _, l := range res.Level {
			if l < 0 || int(l) >= res.Count {
				return false
			}
		}
		return true
	})
}

// TestLevelsKappaMonotone verifies Theorem 2: κ is non-decreasing across
// levels.
func TestLevelsKappaMonotone(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		inst := nucleus.NewCore(g)
		levels := Levels(inst)
		kappa := Run(nucleus.NewCore(g)).Kappa
		// max κ in level i must be <= min κ in level j for i < j.
		maxAt := make([]int32, levels.Count)
		minAt := make([]int32, levels.Count)
		for i := range minAt {
			minAt[i] = 1 << 30
		}
		for c, l := range levels.Level {
			if kappa[c] > maxAt[l] {
				maxAt[l] = kappa[c]
			}
			if kappa[c] < minAt[l] {
				minAt[l] = kappa[c]
			}
		}
		for i := 1; i < levels.Count; i++ {
			if maxAt[i-1] > minAt[i] {
				return false
			}
		}
		return true
	})
}

func TestLevelsTrussInstance(t *testing.T) {
	g := graph.Complete(5)
	res := Levels(nucleus.NewTruss(g))
	// K5 is perfectly symmetric: one level holding all 10 edges.
	if res.Count != 1 || res.Sizes[0] != 10 {
		t.Fatalf("K5 truss levels = %d %v", res.Count, res.Sizes)
	}
}

func quickGraphs(t *testing.T, pred func(*graph.Graph) bool) {
	t.Helper()
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 3
		m := int(mRaw%120) + 1
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		return pred(graph.GnM(n, m, seed))
	}, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(12))})
	if err != nil {
		t.Fatal(err)
	}
}
