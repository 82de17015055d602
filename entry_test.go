package nucleus

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// entryGraphs are the inputs of the cross-entry-point checks: dense,
// skewed, community-structured and the paper's toy.
func entryGraphs() []*Graph {
	return []*Graph{
		graph.Complete(7),
		graph.Figure2(),
		PlantedCommunities(4, 30, 0.4, 60, 5),
		PowerLawCluster(300, 5, 0.5, 9),
	}
}

// TestEntryPointsMatchOnTheFly: on all three families and at threads
// {1, 2, 4}, Decompose (Peel, AND, SND) and DecomposeRS return the κ a peel
// of the on-the-fly instance (budget 0) returns; BuildHierarchy writes the
// JSON bytes of hierarchy.Build over the on-the-fly instance; NucleiAt and
// MaxNucleusCells answer as hierarchy does over it. So which kind of
// instance an entry point builds never shows in what it returns.
func TestEntryPointsMatchOnTheFly(t *testing.T) {
	for gi, g := range entryGraphs() {
		for _, dec := range []Decomposition{KCore, KTruss, Nucleus34} {
			name := fmt.Sprintf("graph %d %v", gi, dec)
			ref := newInstance(g, dec, 0, 1)
			want := peel.Run(ref).Kappa
			for _, threads := range []int{1, 2, 4} {
				for _, alg := range []Algorithm{Peel, AND, SND} {
					if got := Decompose(g, dec, Options{Algorithm: alg, Threads: threads}).Kappa; !slices.Equal(got, want) {
						t.Fatalf("%s %v threads=%d: Decompose κ differs from the on-the-fly peel", name, alg, threads)
					}
				}
				if got := DecomposeRS(g, int(dec)+1, int(dec)+2, Options{Threads: threads}).Kappa; !slices.Equal(got, want) {
					t.Fatalf("%s threads=%d: DecomposeRS κ differs from the on-the-fly peel", name, threads)
				}
			}

			var got, wantJSON bytes.Buffer
			if err := BuildHierarchy(g, dec, want).WriteJSON(&got, g); err != nil {
				t.Fatal(err)
			}
			if err := hierarchy.Build(ref, want).WriteJSON(&wantJSON, g); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), wantJSON.Bytes()) {
				t.Fatalf("%s: BuildHierarchy JSON differs from the on-the-fly forest's", name)
			}
			if len(want) == 0 {
				continue
			}
			k := slices.Max(want) / 2
			if got, w := NucleiAt(g, dec, want, k), hierarchy.KNucleusSubgraphs(ref, want, k); fmt.Sprint(got) != fmt.Sprint(w) {
				t.Fatalf("%s: NucleiAt(%d) = %v, on the fly %v", name, k, got, w)
			}
			cell := int32(len(want) / 2)
			if got, w := MaxNucleusCells(g, dec, want, cell), hierarchy.MaxNucleusOf(ref, want, cell); !slices.Equal(got, w) {
				t.Fatalf("%s: MaxNucleusCells(%d) = %v, on the fly %v", name, cell, got, w)
			}
		}
	}
}

// TestEntryPointsShareOneInstance: whichever entry point is the first to
// touch a graph builds the one instance per family every later call on that
// graph reaches — Decompose, DecomposeRS and BuildHierarchy hand back that
// very pointer, and the memo reports it as already built — while a budget-0
// call gets an on-the-fly instance of its own. The truss query and warm
// start are entry points too: neither counts the triangles again.
func TestEntryPointsShareOneInstance(t *testing.T) {
	mk := func() *Graph { return PlantedCommunities(3, 20, 0.5, 30, 3) }
	for _, dec := range []Decomposition{KCore, KTruss, Nucleus34} {
		kappa := Decompose(mk(), dec, Options{Algorithm: Peel}).Kappa
		k := slices.Max(kappa) / 2
		entries := map[string]func(g *Graph){
			"Decompose":       func(g *Graph) { Decompose(g, dec, Options{Threads: 2}) },
			"DecomposeRS":     func(g *Graph) { DecomposeRS(g, int(dec)+1, int(dec)+2, Options{Algorithm: SND}) },
			"BuildHierarchy":  func(g *Graph) { BuildHierarchy(g, dec, kappa) },
			"NucleiAt":        func(g *Graph) { NucleiAt(g, dec, kappa, k) },
			"MaxNucleusCells": func(g *Graph) { MaxNucleusCells(g, dec, kappa, 0) },
		}
		if dec == KTruss {
			entries["EstimateTrussNumbers"] = func(g *Graph) {
				u, v := g.Edge(0)
				EstimateTrussNumbers(g, [][2]uint32{{u, v}}, 1, 0)
			}
			entries["WarmTrussNumbers"] = func(g *Graph) { WarmTrussNumbers(g, g, kappa, 0) }
		}
		for name, first := range entries {
			g := mk()
			first(g)
			inst, _, built := inucleus.For(g, inucleus.Family(dec), inucleus.LibraryIndexBudget, 1)
			if built {
				t.Fatalf("%v: %s left no instance in the graph's memo", dec, name)
			}
			reached := map[string]inucleus.Instance{
				"Decompose":      Decompose(g, dec, Options{Algorithm: Peel, Threads: 4}).inst,
				"DecomposeRS":    DecomposeRS(g, int(dec)+1, int(dec)+2, Options{}).inst,
				"BuildHierarchy": BuildHierarchy(g, dec, kappa).Inst,
			}
			for by, got := range reached {
				if got != inst {
					t.Fatalf("%v after %s: %s ran on %T %p, want the memoized %T %p", dec, name, by, got, got, inst, inst)
				}
			}
			if own := newInstance(g, dec, 0, 1); own == inst {
				t.Fatalf("%v: a budget-0 call reused the budgeted instance", dec)
			}
		}
	}
}

// TestCellsToVerticesMatchesInstance: CellsToVertices, which builds no
// s-degrees, answers what the instance's own CellVertices gives, on all
// three families; for KTruss it allocates only its answer and the instance
// header — nothing of edge count.
func TestCellsToVerticesMatchesInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for gi, g := range entryGraphs() {
		for _, dec := range []Decomposition{KCore, KTruss, Nucleus34} {
			inst := newInstance(g, dec, 0, 1)
			n := inst.NumCells()
			for round := 0; round < 5 && n > 0; round++ {
				cells := make([]int32, 1+rng.Intn(n))
				for i := range cells {
					cells[i] = int32(rng.Intn(n))
				}
				if got, want := CellsToVertices(g, dec, cells), hierarchy.CellsToVertices(inst, cells); !slices.Equal(got, want) {
					t.Fatalf("graph %d %v: CellsToVertices(%v) = %v, want %v", gi, dec, cells, got, want)
				}
			}
		}
	}

	g := PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	g.Edges() // number the edges once, outside the measured calls
	cells := []int32{0, 5, 17, 400, 9000}
	if allocs := testing.AllocsPerRun(20, func() { CellsToVertices(g, KTruss, cells) }); allocs > 2 {
		t.Fatalf("CellsToVertices(KTruss) allocated %.0f times per call, want <= 2", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	CellsToVertices(g, KTruss, cells)
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(g.M()) {
		t.Fatalf("CellsToVertices(KTruss) allocated %d bytes on a graph of %d edges", bytes, g.M())
	}
}

// TestCellsToVerticesN34ReadsTheGraphIndex: on planted and RMAT inputs,
// CellsToVertices(Nucleus34) of random cell sets is the union of the cells'
// vertices in triangle-id order as cliques.ForEach walks them; and after a
// (3,4) decomposition the call reads the graph's one triangle index, the
// memoized pointer the decomposition's instance was built on, so it
// allocates nothing of the graph's size and leaves the memo as it was.
func TestCellsToVerticesN34ReadsTheGraphIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, mk := range map[string]func() *Graph{
		"planted": func() *Graph { return PlantedCommunities(12, 80, 0.3, 1200, 1_000_003) },
		"rmat":    func() *Graph { return RMAT(10, 8, 0.57, 0.19, 0.19, 75) },
	} {
		g := mk()
		var tris []cliques.Triangle
		cliques.ForEach(g, func(tr cliques.Triangle) bool {
			tris = append(tris, tr)
			return true
		})
		for round := 0; round < 5; round++ {
			cells := make([]int32, 1+rng.Intn(len(tris)))
			var want []uint32
			for i := range cells {
				cells[i] = int32(rng.Intn(len(tris)))
				want = append(want, tris[cells[i]][:]...)
			}
			slices.Sort(want)
			if got := CellsToVertices(g, Nucleus34, cells); !slices.Equal(got, slices.Compact(want)) {
				t.Fatalf("%s: CellsToVertices(%d cells) differs from the triangles' vertex union", name, len(cells))
			}
		}

		g = mk()
		Decompose(g, Nucleus34, Options{Algorithm: AND})
		idx := cliques.TriangleIndexOf(g, 1)
		cells := []int32{0, int32(len(tris) / 2), int32(len(tris) - 1)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		CellsToVertices(g, Nucleus34, cells)
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= uint64(g.M()) {
			t.Fatalf("%s: CellsToVertices(Nucleus34) allocated %d bytes on a graph of %d edges", name, bytes, g.M())
		}
		if cliques.TriangleIndexOf(g, 1) != idx {
			t.Fatalf("%s: CellsToVertices replaced the graph's triangle index", name)
		}
	}
}

// BenchmarkBuildHierarchyCore times the core forest on lib_core/aux's input
// (round 0 of seed 1): BuildHierarchy after Decompose(KCore) on the same
// graph, as lib_core asks for it — the forest over the graph's own CSR.
func BenchmarkBuildHierarchyCore(b *testing.B) {
	g := RMAT(14, 8, 0.57, 0.19, 0.19, 1_000_003)
	kappa := Decompose(g, KCore, Options{Algorithm: Peel}).Kappa
	b.ReportAllocs()
	for b.Loop() {
		if BuildHierarchy(g, KCore, kappa).NumNodes() == 0 {
			b.Fatal("empty core hierarchy")
		}
	}
}

// BenchmarkBuildHierarchyTruss times the truss forest on lib_nucleus/aux's
// input (round 0 of seed 1). cold/P=1 is BuildHierarchy on a graph nothing
// has decomposed yet — instance build at one thread plus the forest over
// its stored rows — and cold/P=2 the same build at two threads; warm is
// BuildHierarchy after Decompose(KTruss) on the same graph, as lib_nucleus
// asks for it: the forest over the instance the decomposition built.
func BenchmarkBuildHierarchyTruss(b *testing.B) {
	g := PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	kappa := Decompose(g, KTruss, Options{Algorithm: Peel}).Kappa
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("cold/P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				inst, _ := inucleus.Build(g, inucleus.FamilyTruss, inucleus.LibraryIndexBudget, p)
				if hierarchy.Build(inst, kappa).NumNodes() == 0 {
					b.Fatal("empty truss hierarchy")
				}
			}
		})
	}
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if BuildHierarchy(g, KTruss, kappa).NumNodes() == 0 {
				b.Fatal("empty truss hierarchy")
			}
		}
	})
}
