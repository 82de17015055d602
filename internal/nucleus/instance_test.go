package nucleus_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

func TestCoreInstanceBasics(t *testing.T) {
	g := graph.Figure2()
	inst := nucleus.NewCore(g)
	if inst.R() != 1 || inst.S() != 2 {
		t.Fatal("wrong (r,s)")
	}
	if inst.NumCells() != 6 {
		t.Fatalf("cells = %d", inst.NumCells())
	}
	deg := inst.Degrees()
	want := []int32{2, 3, 2, 2, 2, 1}
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("deg = %v, want %v", deg, want)
		}
	}
	// The row of b (id 1) holds its 3 neighbors, one per s-clique.
	rows := inst.Rows()
	var buf []int32
	if rows.Co != 1 || len(rows.Row(1, &buf)) != 3 {
		t.Fatalf("b: co-arity %d, row %v; want 1 and its 3 neighbors", rows.Co, rows.Row(1, &buf))
	}
}

func TestTrussInstanceBasics(t *testing.T) {
	g := graph.Complete(5)
	inst := nucleus.NewTruss(g)
	if inst.R() != 2 || inst.S() != 3 {
		t.Fatal("wrong (r,s)")
	}
	if inst.NumCells() != 10 {
		t.Fatalf("cells = %d", inst.NumCells())
	}
	for _, d := range inst.Degrees() {
		if d != 3 { // each edge of K5 is in 3 triangles
			t.Fatalf("K5 edge triangle count = %d", d)
		}
	}
	// Each s-clique holds exactly two co-member edges.
	if co := inst.Rows().Co; co != 2 {
		t.Fatalf("truss s-clique has %d co-members", co)
	}
}

func TestN34InstanceBasics(t *testing.T) {
	g := graph.Complete(6)
	inst := nucleus.NewN34(g)
	if inst.R() != 3 || inst.S() != 4 {
		t.Fatal("wrong (r,s)")
	}
	if inst.NumCells() != 20 {
		t.Fatalf("cells = %d", inst.NumCells())
	}
	for _, d := range inst.Degrees() {
		if d != 3 { // each triangle of K6 is in 3 four-cliques
			t.Fatalf("K6 triangle K4 count = %d", d)
		}
	}
	if co := inst.Rows().Co; co != 3 {
		t.Fatalf("(3,4) s-clique has %d co-members", co)
	}
}

func TestHyperMatchesSpecializedDegrees(t *testing.T) {
	quickGraphs(t, 20, func(g *graph.Graph) bool {
		// (1,2): Hyper degrees equal vertex degrees (cells are single
		// vertices; order matches because 1-cliques enumerate in id order).
		h12 := nucleustest.NewHyper(g, 1, 2)
		core := nucleus.NewCore(g)
		if h12.NumCells() != core.NumCells() {
			return false
		}
		d1, d2 := h12.Degrees(), core.Degrees()
		for i := range d1 {
			if d1[i] != d2[i] {
				return false
			}
		}
		// (2,3): compare triangle counts via vertex-set keys.
		h23 := nucleustest.NewHyper(g, 2, 3)
		truss := nucleus.NewTruss(g)
		if h23.NumCells() != truss.NumCells() {
			return false
		}
		td := truss.Degrees()
		for c := int32(0); c < int32(h23.NumCells()); c++ {
			vs := h23.CellVertices(c, nil)
			e, ok := g.EdgeID(vs[0], vs[1])
			if !ok || h23.Degrees()[c] != td[e] {
				return false
			}
		}
		return true
	})
}

func TestHyper34MatchesN34(t *testing.T) {
	g := graph.PlantedCommunities(2, 10, 0.7, 5, 3)
	h := nucleustest.NewHyper(g, 3, 4)
	n34 := nucleus.NewN34(g)
	if h.NumCells() != n34.NumCells() {
		t.Fatalf("cell counts differ: %d vs %d", h.NumCells(), n34.NumCells())
	}
	hd := h.Degrees()
	nd := n34.Degrees()
	byKey := make(map[string]int32)
	for c := 0; c < n34.NumCells(); c++ {
		byKey[sortedKey(n34.CellVertices(int32(c), nil))] = nd[c]
	}
	for c := 0; c < h.NumCells(); c++ {
		key := sortedKey(h.CellVertices(int32(c), nil))
		want, ok := byKey[key]
		if !ok || hd[c] != want {
			t.Fatalf("cell %s: hyper deg %d, n34 deg %d (found=%v)", key, hd[c], want, ok)
		}
	}
}

func TestHyperInvalidArgs(t *testing.T) {
	g := graph.Complete(4)
	for _, rs := range [][2]int{{0, 2}, {2, 2}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHyper(%d,%d) did not panic", rs[0], rs[1])
				}
			}()
			nucleustest.NewHyper(g, rs[0], rs[1])
		}()
	}
}

// TestRowLengthMatchesDegree: every instance's row of a cell holds Co ids
// per s-clique, as many s-cliques as the cell's s-degree — stored rows and
// discovered ones alike, the buffer reused from cell to cell.
func TestRowLengthMatchesDegree(t *testing.T) {
	g := graph.PlantedCommunities(2, 12, 0.6, 10, 5)
	for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g), nucleus.NewN34(g), nucleustest.NewHyper(g, 2, 3), nucleus.NewFlatTruss(g, 1)} {
		deg := inst.Degrees()
		rows := inst.Rows()
		var buf []int32
		for c := int32(0); c < int32(inst.NumCells()); c++ {
			if n := len(rows.Row(c, &buf)); n != rows.Co*int(deg[c]) {
				t.Fatalf("(%d,%d) cell %d: row of %d ids at co-arity %d, degree %d",
					inst.R(), inst.S(), c, n, rows.Co, deg[c])
			}
		}
	}
}

func TestCellLabels(t *testing.T) {
	g := graph.Complete(4)
	if got := nucleus.NewCore(g).CellLabel(2); got != "v2" {
		t.Errorf("core label = %q", got)
	}
	truss := nucleus.NewTruss(g)
	if got := truss.CellLabel(0); got == "" {
		t.Errorf("empty truss label")
	}
	n34 := nucleus.NewN34(g)
	if got := n34.CellLabel(0); got == "" {
		t.Errorf("empty n34 label")
	}
	h := nucleustest.NewHyper(g, 1, 2)
	if got := h.CellLabel(0); got == "" {
		t.Errorf("empty hyper label")
	}
}

func TestHyperCellID(t *testing.T) {
	g := graph.Complete(4)
	h := nucleustest.NewHyper(g, 2, 3)
	for c := int32(0); c < int32(h.NumCells()); c++ {
		vs := h.CellVertices(c, nil)
		if got := h.CellID([]uint32{vs[1], vs[0]}); got != c {
			t.Fatalf("CellID round trip failed for cell %d", c)
		}
	}
	if got := h.CellID([]uint32{100, 200}); got != -1 {
		t.Fatalf("CellID of absent clique = %d", got)
	}
	if len(h.Cells()) != h.NumCells() {
		t.Fatal("Cells() length mismatch")
	}
}

func TestTrussDegreesMatchCliquePackage(t *testing.T) {
	g := graph.PowerLawCluster(150, 4, 0.5, 9)
	inst := nucleus.NewTruss(g)
	want := cliques.CountPerEdge(g)
	got := inst.Degrees()
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("edge %d: %d vs %d", e, got[e], want[e])
		}
	}
}

func sortedKey(vs []uint32) string {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return fmt.Sprint(vs)
}

func quickGraphs(t *testing.T, maxN int, pred func(*graph.Graph) bool) {
	t.Helper()
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw)%maxN + 4
		m := int(mRaw%100) + 1
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		return pred(graph.GnM(n, m, seed))
	}, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(6))})
	if err != nil {
		t.Fatal(err)
	}
}
