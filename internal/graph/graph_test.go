package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuildBasic(t *testing.T) {
	g := Build(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {0, 1}, {1, 0}, {2, 2}})
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3 (dups and self-loop removed)", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("missing edge {0,1}")
	}
	if g.HasEdge(0, 3) {
		t.Error("unexpected edge {0,3}")
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop retained")
	}
	if d := g.Degree(1); d != 2 {
		t.Errorf("deg(1) = %d, want 2", d)
	}
}

func TestBuildInferN(t *testing.T) {
	g := Build(-1, [][2]uint32{{5, 9}})
	if g.N() != 10 {
		t.Fatalf("N = %d, want 10", g.N())
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestBuildEmpty(t *testing.T) {
	g := Build(-1, nil)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	g2 := Build(3, nil)
	if g2.N() != 3 || g2.M() != 0 {
		t.Fatalf("edgeless graph: n=%d m=%d", g2.N(), g2.M())
	}
}

func TestNeighborsSortedUnique(t *testing.T) {
	g := GnM(200, 800, 1)
	for u := 0; u < g.N(); u++ {
		ns := g.Neighbors(uint32(u))
		for i := 1; i < len(ns); i++ {
			if ns[i] <= ns[i-1] {
				t.Fatalf("row %d not sorted/unique at %d: %v", u, i, ns)
			}
		}
		for _, v := range ns {
			if v == uint32(u) {
				t.Fatalf("self-loop on %d", u)
			}
		}
	}
}

func TestEdgeIDsConsistent(t *testing.T) {
	g := GnM(100, 300, 2)
	seen := make(map[int64][2]uint32)
	for u := 0; u < g.N(); u++ {
		ns := g.Neighbors(uint32(u))
		ids := g.EdgeIDs(uint32(u))
		if len(ns) != len(ids) {
			t.Fatalf("row %d: len mismatch", u)
		}
		for i, v := range ns {
			e := ids[i]
			if e < 0 || e >= g.M() {
				t.Fatalf("edge id %d out of range", e)
			}
			lo, hi := uint32(u), v
			if lo > hi {
				lo, hi = hi, lo
			}
			if prev, ok := seen[e]; ok {
				if prev != [2]uint32{lo, hi} {
					t.Fatalf("edge id %d maps to both %v and %v", e, prev, [2]uint32{lo, hi})
				}
			} else {
				seen[e] = [2]uint32{lo, hi}
			}
		}
	}
	if int64(len(seen)) != g.M() {
		t.Fatalf("saw %d distinct ids, want %d", len(seen), g.M())
	}
	// Edge endpoint table agrees with EdgeID lookups.
	for e := int64(0); e < g.M(); e++ {
		u, v := g.Edge(e)
		if u >= v {
			t.Fatalf("edge %d endpoints not ordered: %d %d", e, u, v)
		}
		id, ok := g.EdgeID(u, v)
		if !ok || id != e {
			t.Fatalf("EdgeID(%d,%d) = %d,%v want %d", u, v, id, ok, e)
		}
		id2, ok2 := g.EdgeID(v, u)
		if !ok2 || id2 != e {
			t.Fatalf("EdgeID(%d,%d) = %d,%v want %d", v, u, id2, ok2, e)
		}
	}
}

func TestEdgesList(t *testing.T) {
	g := Complete(5)
	edges := g.Edges()
	if len(edges) != 10 {
		t.Fatalf("K5 has %d edges, want 10", len(edges))
	}
	for e, pair := range edges {
		id, ok := g.EdgeID(pair[0], pair[1])
		if !ok || id != int64(e) {
			t.Fatalf("edge %d inconsistent", e)
		}
	}
}

func TestDegreesAndMaxDegree(t *testing.T) {
	g := Star(7)
	if g.MaxDegree() != 7 {
		t.Fatalf("star max degree = %d, want 7", g.MaxDegree())
	}
	d := g.Degrees()
	if d[0] != 7 {
		t.Fatalf("hub degree = %d", d[0])
	}
	for v := 1; v <= 7; v++ {
		if d[v] != 1 {
			t.Fatalf("leaf %d degree = %d", v, d[v])
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := GnM(60, 150, 3)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("0\n")); err == nil {
		t.Error("want error for short line")
	}
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Error("want error for non-numeric")
	}
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		na, nb := a.Neighbors(uint32(u)), b.Neighbors(uint32(u))
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree mismatch", u)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d adjacency mismatch", u)
			}
		}
	}
}

func TestDegeneracyOrderCompleteGraph(t *testing.T) {
	g := Complete(6)
	_, d := g.DegeneracyOrder()
	if d != 5 {
		t.Fatalf("degeneracy(K6) = %d, want 5", d)
	}
}

func TestDegeneracyOrderTree(t *testing.T) {
	g := Path(50)
	_, d := g.DegeneracyOrder()
	if d != 1 {
		t.Fatalf("degeneracy(path) = %d, want 1", d)
	}
}

func TestDegeneracyOrderIsPermutation(t *testing.T) {
	g := GnM(120, 500, 5)
	rank, d := g.DegeneracyOrder()
	seen := make([]bool, g.N())
	for _, r := range rank {
		if r < 0 || int(r) >= g.N() || seen[r] {
			t.Fatalf("rank not a permutation")
		}
		seen[r] = true
	}
	if d < 1 {
		t.Fatalf("degeneracy = %d", d)
	}
}

// TestDegeneracyMatchesNaive compares against a naive repeated-min removal.
func TestDegeneracyMatchesNaive(t *testing.T) {
	quickCheck(t, func(g *Graph) bool {
		_, fast := g.DegeneracyOrder()
		return fast == naiveDegeneracy(g)
	})
}

func naiveDegeneracy(g *Graph) int {
	n := g.N()
	deg := make([]int, n)
	removed := make([]bool, n)
	for u := 0; u < n; u++ {
		deg[u] = g.Degree(uint32(u))
	}
	degeneracy := 0
	for iter := 0; iter < n; iter++ {
		best := -1
		for u := 0; u < n; u++ {
			if !removed[u] && (best < 0 || deg[u] < deg[best]) {
				best = u
			}
		}
		if deg[best] > degeneracy {
			degeneracy = deg[best]
		}
		removed[best] = true
		for _, v := range g.Neighbors(uint32(best)) {
			if !removed[v] {
				deg[v]--
			}
		}
	}
	return degeneracy
}

func TestDegreeOrderSorted(t *testing.T) {
	g := GnM(80, 300, 6)
	rank := g.DegreeOrder()
	byRank := make([]int, g.N())
	for u, r := range rank {
		byRank[r] = u
	}
	for i := 1; i < len(byRank); i++ {
		a, b := byRank[i-1], byRank[i]
		if g.Degree(uint32(a)) > g.Degree(uint32(b)) {
			t.Fatalf("degree order violated at rank %d", i)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := Build(7, [][2]uint32{{0, 1}, {1, 2}, {3, 4}})
	comp, count := g.ConnectedComponents()
	if count != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("count = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("component {0,1,2} split")
	}
	if comp[3] != comp[4] {
		t.Error("component {3,4} split")
	}
	if comp[5] == comp[6] {
		t.Error("singletons merged")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(6)
	sub, remap := g.InducedSubgraph([]uint32{0, 2, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: n=%d m=%d", sub.N(), sub.M())
	}
	if remap[0] != 0 || remap[2] != 1 || remap[4] != 2 {
		t.Fatalf("remap wrong: %v", remap)
	}
	if remap[1] != -1 {
		t.Fatalf("excluded vertex mapped: %v", remap)
	}
}

func TestBFSWithin(t *testing.T) {
	g := Path(10)
	got := g.BFSWithin([]uint32{5}, 2)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []uint32{3, 4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if len(g.BFSWithin([]uint32{0}, 0)) != 1 {
		t.Error("hops=0 should return only seeds")
	}
}

func TestGeneratorsShape(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n    int
	}{
		{"GnM", GnM(100, 300, 1), 100},
		{"BA", BarabasiAlbert(100, 3, 1), 100},
		{"RMAT", RMAT(7, 4, 0.57, 0.19, 0.19, 1), 128},
		{"WS", WattsStrogatz(100, 3, 0.1, 1), 100},
		{"Planted", PlantedCommunities(4, 10, 0.5, 20, 1), 40},
		{"PLC", PowerLawCluster(100, 3, 0.5, 1), 100},
		{"LogNormal", LogNormalDegrees(100, 1.0, 1.0, 1), 100},
		{"Turan", Turan(12, 4), 12},
		{"CliqueChain", CliqueChain(3, 4), 12},
		{"Cycle", Cycle(9), 9},
	}
	for _, c := range cases {
		if c.g.N() != c.n {
			t.Errorf("%s: n = %d, want %d", c.name, c.g.N(), c.n)
		}
		if c.g.M() == 0 {
			t.Errorf("%s: no edges", c.name)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := RMAT(8, 4, 0.57, 0.19, 0.19, 99)
	b := RMAT(8, 4, 0.57, 0.19, 0.19, 99)
	assertSameGraph(t, a, b)
	c := BarabasiAlbert(200, 4, 7)
	d := BarabasiAlbert(200, 4, 7)
	assertSameGraph(t, c, d)
}

func TestBarabasiAlbertDegrees(t *testing.T) {
	g := BarabasiAlbert(500, 4, 3)
	// Every vertex beyond the seed clique attaches with exactly k edges, so
	// min degree is k.
	for u := 0; u < g.N(); u++ {
		if g.Degree(uint32(u)) < 4 {
			t.Fatalf("vertex %d degree %d < k", u, g.Degree(uint32(u)))
		}
	}
}

func TestFixtures(t *testing.T) {
	fig2 := Figure2()
	if fig2.N() != 6 || fig2.M() != 6 {
		t.Fatalf("Figure2 shape: n=%d m=%d", fig2.N(), fig2.M())
	}
	wantDeg := []int{2, 3, 2, 2, 2, 1} // a..f
	for u, w := range wantDeg {
		if fig2.Degree(uint32(u)) != w {
			t.Errorf("Figure2 deg(%s) = %d, want %d", Figure2Vertices[u], fig2.Degree(uint32(u)), w)
		}
	}
	if g := TrussToy(); g.N() != 7 {
		t.Errorf("TrussToy n = %d", g.N())
	}
	if g := Nucleus34Toy(); g.N() != 8 {
		t.Errorf("Nucleus34Toy n = %d", g.N())
	}
	if g := LevelsToy(); g.N() != 7 {
		t.Errorf("LevelsToy n = %d", g.N())
	}
}

// quickCheck runs the predicate over random graphs via testing/quick.
func quickCheck(t *testing.T, pred func(*Graph) bool) {
	t.Helper()
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 2
		m := int(mRaw%100) + 1
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		return pred(GnM(n, m, seed))
	}, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
}
