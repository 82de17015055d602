package nucleus

import (
	"strings"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	inucleus "nucleus/internal/nucleus"
)

func figure2() *Graph { return graph.Figure2() }

func TestDecomposeKCoreAllAlgorithms(t *testing.T) {
	g := figure2()
	want := []int32{1, 2, 2, 2, 1, 1}
	for _, alg := range []Algorithm{Peel, SND, AND} {
		res := Decompose(g, KCore, Options{Algorithm: alg})
		if !res.Converged {
			t.Fatalf("%v did not converge", alg)
		}
		for i := range want {
			if res.Kappa[i] != want[i] {
				t.Fatalf("%v κ = %v, want %v", alg, res.Kappa, want)
			}
		}
		if res.MaxKappa != 2 {
			t.Fatalf("%v max κ = %d", alg, res.MaxKappa)
		}
	}
}

func TestDecomposeAgreementAcrossInstances(t *testing.T) {
	g := PowerLawCluster(300, 5, 0.5, 51)
	for _, dec := range []Decomposition{KCore, KTruss, Nucleus34} {
		base := Decompose(g, dec, Options{Algorithm: Peel})
		for _, alg := range []Algorithm{SND, AND} {
			res := Decompose(g, dec, Options{Algorithm: alg, Threads: 3})
			if len(res.Kappa) != len(base.Kappa) {
				t.Fatalf("%v %v: length mismatch", dec, alg)
			}
			for i := range base.Kappa {
				if res.Kappa[i] != base.Kappa[i] {
					t.Fatalf("%v %v disagrees with peeling at cell %d", dec, alg, i)
				}
			}
		}
	}
}

func TestDecomposeRS(t *testing.T) {
	g := BuildGraph(6, [][2]uint32{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
		{1, 2}, {1, 3}, {1, 4}, {1, 5},
		{2, 3}, {2, 4}, {2, 5},
		{3, 4}, {3, 5},
		{4, 5},
	}) // K6
	// (2,4) on K6: each edge is in C(4,2)=6 four-cliques; uniform peel: κ=6.
	res := DecomposeRS(g, 2, 4, Options{Algorithm: SND})
	for _, k := range res.Kappa {
		if k != 6 {
			t.Fatalf("(2,4) κ = %v", res.Kappa)
		}
	}
}

func TestDecomposeBudget(t *testing.T) {
	g := PowerLawCluster(500, 5, 0.5, 53)
	exact := Decompose(g, KTruss, Options{Algorithm: Peel})
	approx := Decompose(g, KTruss, Options{Algorithm: SND, MaxSweeps: 2})
	if approx.Converged && approx.Sweeps > 2 {
		t.Fatal("budget ignored")
	}
	for i := range exact.Kappa {
		if approx.Kappa[i] < exact.Kappa[i] {
			t.Fatal("approximation below κ")
		}
	}
	if KendallTau(approx.Kappa, exact.Kappa) < 0.5 {
		t.Error("two sweeps should already correlate strongly")
	}
	if ExactFraction(exact.Kappa, exact.Kappa) != 1.0 {
		t.Error("self exact fraction != 1")
	}
}

func TestHistogram(t *testing.T) {
	g := figure2()
	res := Decompose(g, KCore, Options{})
	h := res.Histogram()
	if len(h) != 3 || h[1] != 3 || h[2] != 3 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestCellLabelsAndVertices(t *testing.T) {
	g := figure2()
	res := Decompose(g, KTruss, Options{})
	if res.CellLabel(0) == "" {
		t.Error("empty label")
	}
	if vs := res.CellVertices(0); len(vs) != 2 {
		t.Errorf("truss cell vertices = %v", vs)
	}
}

func TestBuildHierarchyAPI(t *testing.T) {
	g := figure2()
	res := Decompose(g, KCore, Options{})
	f := BuildHierarchy(g, KCore, res.Kappa)
	if len(f.Roots()) != 1 || f.K[f.Roots()[0]] != 1 {
		t.Fatalf("unexpected forest shape")
	}
}

func TestQueryAPI(t *testing.T) {
	g := PowerLawCluster(200, 4, 0.5, 55)
	exact := Decompose(g, KCore, Options{Algorithm: Peel})
	est := EstimateCoreNumbers(g, []uint32{3, 7}, 3, 0)
	for i, q := range []uint32{3, 7} {
		if est.Tau[i] < exact.Kappa[q] {
			t.Fatal("estimate below κ")
		}
	}
	u, v := g.Edge(0)
	est2 := EstimateTrussNumbers(g, [][2]uint32{{u, v}}, 2, 0)
	if len(est2.Tau) != 1 || est2.Tau[0] < 0 {
		t.Fatalf("truss estimate = %v", est2.Tau)
	}
}

func TestReadEdgeListAPI(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	res := Decompose(g, KCore, Options{})
	for _, k := range res.Kappa {
		if k != 2 {
			t.Fatalf("triangle κ = %v", res.Kappa)
		}
	}
}

func TestStringers(t *testing.T) {
	if KCore.String() == "" || KTruss.String() == "" || Nucleus34.String() == "" {
		t.Error("empty decomposition name")
	}
	if AND.String() != "AND" || SND.String() != "SND" || Peel.String() != "Peel" {
		t.Error("bad algorithm names")
	}
	if Decomposition(99).String() == "" || Algorithm(99).String() == "" {
		t.Error("unknown values should still format")
	}
}

// TestNumberingMatchesInternal pins the conversions by number: a
// Decomposition is the internal Family of the same (r,s), an Algorithm the
// internal engine of the same name.
func TestNumberingMatchesInternal(t *testing.T) {
	for dec, rs := range map[Decomposition][2]int{KCore: {1, 2}, KTruss: {2, 3}, Nucleus34: {3, 4}} {
		if r, s := inucleus.Family(dec).RS(); r != rs[0] || s != rs[1] {
			t.Errorf("%v converts to the (%d,%d) family", dec, r, s)
		}
	}
	for _, alg := range []Algorithm{AND, SND, Peel} {
		if got := localhi.Algorithm(alg).String(); got != strings.ToLower(alg.String()) {
			t.Errorf("%v converts to the %q engine", alg, got)
		}
	}
}

func TestOnSweepAPI(t *testing.T) {
	g := PowerLawCluster(100, 4, 0.5, 57)
	sweeps := 0
	res := Decompose(g, KCore, Options{Algorithm: SND, OnSweep: func(s int, tau []int32) {
		sweeps++
	}})
	if sweeps != res.Sweeps {
		t.Fatalf("callback sweeps %d != %d", sweeps, res.Sweeps)
	}
}

func TestDefaultThreads(t *testing.T) {
	if DefaultThreads() < 1 {
		t.Fatal("DefaultThreads < 1")
	}
}
