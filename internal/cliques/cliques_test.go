package cliques

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nucleus/internal/graph"
)

// naiveTriangles enumerates triangles by triple loop.
func naiveTriangles(g *graph.Graph) map[Triangle]bool {
	out := make(map[Triangle]bool)
	n := g.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(uint32(u), uint32(v)) {
				continue
			}
			for w := v + 1; w < n; w++ {
				if g.HasEdge(uint32(u), uint32(w)) && g.HasEdge(uint32(v), uint32(w)) {
					out[Triangle{uint32(u), uint32(v), uint32(w)}] = true
				}
			}
		}
	}
	return out
}

func TestCountCompleteGraphs(t *testing.T) {
	// K_n has C(n,3) triangles and C(n,4) 4-cliques.
	cases := []struct {
		n         int
		tri, four int64
	}{
		{3, 1, 0},
		{4, 4, 1},
		{5, 10, 5},
		{6, 20, 15},
		{7, 35, 35},
	}
	for _, c := range cases {
		g := graph.Complete(c.n)
		if got := Count(g); got != c.tri {
			t.Errorf("K%d triangles = %d, want %d", c.n, got, c.tri)
		}
		if got := CountK4(g); got != c.four {
			t.Errorf("K%d 4-cliques = %d, want %d", c.n, got, c.four)
		}
	}
}

func TestCountTriangleFree(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(20), graph.Cycle(20), graph.Star(10), graph.Turan(10, 2)} {
		if got := Count(g); got != 0 {
			t.Errorf("triangle-free graph has %d triangles", got)
		}
	}
}

func TestForEachMatchesNaive(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		want := naiveTriangles(g)
		got := make(map[Triangle]bool)
		ForEach(g, func(tr Triangle) bool {
			if got[tr] {
				t.Errorf("triangle %v emitted twice", tr)
			}
			got[tr] = true
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for tr := range want {
			if !got[tr] {
				return false
			}
		}
		return true
	})
}

func TestCountPerEdgeMatchesNaive(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		counts := CountPerEdge(g)
		want := make([]int32, g.M())
		for tr := range naiveTriangles(g) {
			for _, pair := range [][2]uint32{{tr[0], tr[1]}, {tr[0], tr[2]}, {tr[1], tr[2]}} {
				e, ok := g.EdgeID(pair[0], pair[1])
				if !ok {
					t.Fatalf("triangle edge missing")
				}
				want[e]++
			}
		}
		for e := range counts {
			if counts[e] != want[e] {
				return false
			}
		}
		return true
	})
}

func TestForEachTriangleOfEdge(t *testing.T) {
	g := graph.Complete(5)
	counts := CountPerEdge(g)
	for e := int64(0); e < g.M(); e++ {
		visits := 0
		ForEachTriangleOfEdge(g, e, func(w uint32, euw, evw int64) bool {
			u, v := g.Edge(e)
			// Verify the reported edge ids.
			id1, ok1 := g.EdgeID(u, w)
			id2, ok2 := g.EdgeID(v, w)
			if !ok1 || !ok2 || id1 != euw || id2 != evw {
				t.Fatalf("edge %d apex %d: wrong co-edge ids", e, w)
			}
			visits++
			return true
		})
		if int32(visits) != counts[e] {
			t.Fatalf("edge %d: %d visits, count %d", e, visits, counts[e])
		}
	}
}

func TestForEachTriangleOfEdgeEarlyStop(t *testing.T) {
	g := graph.Complete(6)
	visits := 0
	ForEachTriangleOfEdge(g, 0, func(uint32, int64, int64) bool {
		visits++
		return visits < 2
	})
	if visits != 2 {
		t.Fatalf("early stop ignored: %d visits", visits)
	}
}

func TestTriangleIndex(t *testing.T) {
	g := graph.Complete(5)
	idx := BuildTriangleIndexThreads(g, 1)
	if idx.Len() != 10 {
		t.Fatalf("K5 index has %d triangles, want 10", idx.Len())
	}
	for i := range idx.Len() {
		tr := idx.Triangle(int32(i))
		id, ok := idx.ID(tr[2], tr[0], tr[1]) // unsorted lookup
		if !ok || id != int32(i) {
			t.Fatalf("lookup of %v = %d,%v", tr, id, ok)
		}
	}
	if _, ok := idx.ID(0, 1, 200); ok {
		t.Error("found nonexistent triangle")
	}
}

func TestK4DegreePerTriangle(t *testing.T) {
	// In K5 every triangle is in exactly 2 four-cliques (two choices of
	// apex among the remaining 2 vertices).
	g := graph.Complete(5)
	idx := BuildTriangleIndexThreads(g, 1)
	for _, d := range idx.K4DegreePerTriangleParallel(g, 1) {
		if d != 2 {
			t.Fatalf("K5 triangle K4-degree = %d, want 2", d)
		}
	}
	// In the (3,4) toy, no 4-clique spans the two blocks.
	toy := graph.Nucleus34Toy()
	tidx := BuildTriangleIndexThreads(toy, 1)
	degs := tidx.K4DegreePerTriangleParallel(toy, 1)
	for i := range tidx.Len() {
		tr := tidx.Triangle(int32(i))
		hasG := tr[0] == 6 || tr[1] == 6 || tr[2] == 6
		if hasG && degs[i] != 0 {
			t.Errorf("triangle %v through pendant g has K4 degree %d", tr, degs[i])
		}
	}
}

func TestForEachK4OfTriangle(t *testing.T) {
	g := graph.Complete(6)
	idx := BuildTriangleIndexThreads(g, 1)
	for tid := range idx.Len() {
		count := 0
		idx.ForEachK4OfTriangle(g, int32(tid), func(x uint32, t1, t2, t3 int32) bool {
			tri := idx.Triangle(int32(tid))
			for _, other := range []int32{t1, t2, t3} {
				o := idx.Triangle(other)
				// Each co-triangle must contain x and two of tri's vertices.
				hasX := o[0] == x || o[1] == x || o[2] == x
				if !hasX {
					t.Fatalf("co-triangle %v missing apex %d", o, x)
				}
				shared := 0
				for _, a := range o {
					for _, b := range tri {
						if a == b {
							shared++
						}
					}
				}
				if shared != 2 {
					t.Fatalf("co-triangle %v shares %d vertices with %v", o, shared, tri)
				}
			}
			count++
			return true
		})
		if count != 3 { // K6: each triangle in 3 four-cliques
			t.Fatalf("triangle %d in %d K4s, want 3", tid, count)
		}
	}
}

func TestCountK4MatchesNaive(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		return CountK4(g) == naiveK4(g)
	})
}

func naiveK4(g *graph.Graph) int64 {
	var total int64
	n := g.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !g.HasEdge(uint32(a), uint32(b)) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if !g.HasEdge(uint32(a), uint32(c)) || !g.HasEdge(uint32(b), uint32(c)) {
					continue
				}
				for d := c + 1; d < n; d++ {
					if g.HasEdge(uint32(a), uint32(d)) && g.HasEdge(uint32(b), uint32(d)) && g.HasEdge(uint32(c), uint32(d)) {
						total++
					}
				}
			}
		}
	}
	return total
}

func TestForEachKCliqueCounts(t *testing.T) {
	// K6: C(6,k) cliques of size k.
	g := graph.Complete(6)
	want := map[int]int64{1: 6, 2: 15, 3: 20, 4: 15, 5: 6, 6: 1}
	for k, w := range want {
		if got := CountKCliques(g, k); got != w {
			t.Errorf("K6 %d-cliques = %d, want %d", k, got, w)
		}
	}
	if got := CountKCliques(g, 7); got != 0 {
		t.Errorf("K6 7-cliques = %d, want 0", got)
	}
}

func TestForEachKCliqueMatchesTriangles(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		return CountKCliques(g, 3) == Count(g) && CountKCliques(g, 4) == CountK4(g) && CountKCliques(g, 2) == g.M()
	})
}

func TestForEachKCliqueMembersSorted(t *testing.T) {
	g := graph.GnM(30, 120, 3)
	ForEachKClique(g, 3, func(members []uint32) bool {
		if len(members) != 3 || members[0] >= members[1] || members[1] >= members[2] {
			t.Fatalf("bad members %v", members)
		}
		// All pairs adjacent.
		if !g.HasEdge(members[0], members[1]) || !g.HasEdge(members[0], members[2]) || !g.HasEdge(members[1], members[2]) {
			t.Fatalf("non-clique %v", members)
		}
		return true
	})
}

func TestForEachKCliqueEarlyStop(t *testing.T) {
	g := graph.Complete(8)
	count := 0
	ForEachKClique(g, 3, func([]uint32) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop ignored: %d", count)
	}
}

func quickGraphs(t *testing.T, pred func(*graph.Graph) bool) {
	t.Helper()
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%25) + 4
		m := int(mRaw%120) + 1
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		return pred(graph.GnM(n, m, seed))
	}, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
}
