package nucleus

import (
	"fmt"
	"strings"
	"testing"
)

func TestMaxNucleusCellsAPI(t *testing.T) {
	g := figure2()
	res := Decompose(g, KCore, Options{})
	// Max core of b (vertex 1, κ=2): the triangle {b,c,d}.
	cells := MaxNucleusCells(g, KCore, res.Kappa, 1)
	if len(cells) != 3 {
		t.Fatalf("max core of b = %v", cells)
	}
	vs := CellsToVertices(g, KCore, cells)
	if len(vs) != 3 || vs[0] != 1 || vs[2] != 3 {
		t.Fatalf("vertices = %v", vs)
	}
}

func TestNucleiAtAPI(t *testing.T) {
	g := figure2()
	res := Decompose(g, KCore, Options{})
	if got := NucleiAt(g, KCore, res.Kappa, 2); len(got) != 1 || len(got[0]) != 3 {
		t.Fatalf("2-cores = %v", got)
	}
	if got := NucleiAt(g, KCore, res.Kappa, 1); len(got) != 1 || len(got[0]) != 6 {
		t.Fatalf("1-cores = %v", got)
	}
}

func TestKCoreSubgraphAPI(t *testing.T) {
	g := figure2()
	res := Decompose(g, KCore, Options{})
	sub, _ := KCoreSubgraph(g, res.Kappa, 2)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("2-core: n=%d m=%d", sub.N(), sub.M())
	}
}

// TestDecomposeThreadsBuildTheInstance: Decompose builds its instance
// through newInstance with Options.Threads; under inucleus.LibraryIndexBudget that
// is the stored incidence (the graph's own CSR for k-core) at every thread
// count, and over a budget the on-the-fly instance — with the same κ. Each
// side runs on a copy of its own, since a graph builds its instance once.
func TestDecomposeThreadsBuildTheInstance(t *testing.T) {
	mk := func() *Graph { return PowerLawCluster(200, 4, 0.5, 59) }
	for dec, want := range map[Decomposition][2]string{
		KCore:     {"*nucleus.Core", "*nucleus.Core"},
		KTruss:    {"*nucleus.Flat", "*nucleus.Truss"},
		Nucleus34: {"*nucleus.Flat", "*nucleus.N34"},
	} {
		one := Decompose(mk(), dec, Options{Algorithm: Peel, Threads: 1})
		four := Decompose(mk(), dec, Options{Algorithm: Peel, Threads: 4})
		if one.inst == four.inst {
			t.Fatalf("%v: the two copies share one instance", dec)
		}
		for _, res := range []*Result{one, four} {
			if got := fmt.Sprintf("%T", res.inst); got != want[0] {
				t.Fatalf("%v: Decompose ran on %s, want the stored %s", dec, got, want[0])
			}
		}
		if ExactFraction(four.Kappa, one.Kappa) != 1 {
			t.Fatalf("%v: κ differs between 1 and 4 threads", dec)
		}
		over := newInstance(mk(), dec, 16, 4)
		if got := fmt.Sprintf("%T", over); got != want[1] {
			t.Fatalf("%v: over budget, newInstance built %s, want the on-the-fly %s", dec, got, want[1])
		}
		if res := decomposeInstance(over, dec, Options{Algorithm: Peel, Threads: 4}); ExactFraction(res.Kappa, one.Kappa) != 1 {
			t.Fatalf("%v: κ differs between the stored and the on-the-fly instance", dec)
		}
	}
}

func TestDynamicAPI(t *testing.T) {
	dg := NewDynamicGraph(4)
	dg.InsertEdge(0, 1)
	dg.InsertEdge(1, 2)
	dg.InsertEdge(0, 2)
	if dg.CoreNumber(0) != 2 {
		t.Fatalf("triangle core = %d", dg.CoreNumber(0))
	}
	dg.RemoveEdge(0, 1)
	if dg.CoreNumber(0) != 1 {
		t.Fatalf("path core = %d", dg.CoreNumber(0))
	}
	g := figure2()
	dg2 := DynamicFromGraph(g)
	exact := Decompose(g, KCore, Options{Algorithm: Peel})
	if ExactFraction(dg2.CoreNumbers(), exact.Kappa) != 1 {
		t.Fatal("DynamicFromGraph core numbers wrong")
	}
}

func TestDensestAPI(t *testing.T) {
	g := figure2()
	res := DensestSubgraphApprox(g)
	// The triangle {b,c,d} has average degree 2, the best in Figure 2.
	if res.AverageDegree < 2 {
		t.Fatalf("densest avg degree = %v", res.AverageDegree)
	}
	mc := MaxCoreSubgraph(g)
	if len(mc.Vertices) != 3 {
		t.Fatalf("max core = %v", mc.Vertices)
	}
	md := MeasureDensity(g, []uint32{1, 2, 3})
	if md.EdgeDensity != 1 {
		t.Fatalf("triangle density = %v", md.EdgeDensity)
	}
}

func TestFormatLoadersAPI(t *testing.T) {
	mtx := "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n1 2\n2 3\n1 3\n"
	g, err := ReadMatrixMarket(strings.NewReader(mtx))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Fatalf("mtx edges = %d", g.M())
	}
	metis := "3 3\n2 3\n1 3\n1 2\n"
	g2, err := ReadMETIS(strings.NewReader(metis))
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != 3 {
		t.Fatalf("metis edges = %d", g2.M())
	}
	// Both loaded the triangle: κ₂ = 2 everywhere.
	for _, g := range []*Graph{g, g2} {
		res := Decompose(g, KCore, Options{})
		for _, k := range res.Kappa {
			if k != 2 {
				t.Fatalf("triangle κ = %v", res.Kappa)
			}
		}
	}
}
