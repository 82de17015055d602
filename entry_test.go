package nucleus

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
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

// BenchmarkBuildHierarchyTruss times the truss forest as lib_nucleus/aux
// asks for it — instance build plus forest over its stored rows — on that
// workload's input (round 0 of seed 1): P=1 is BuildHierarchy itself, P=2
// the same build through newInstance at two threads.
func BenchmarkBuildHierarchyTruss(b *testing.B) {
	g := PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	kappa := peel.Run(newInstance(g, KTruss, 0, 1)).Kappa
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			build := func() *Forest { return BuildHierarchy(g, KTruss, kappa) }
			if p > 1 {
				build = func() *Forest { return hierarchy.Build(newInstance(g, KTruss, libraryIndexBudget, p), kappa) }
			}
			b.ReportAllocs()
			for b.Loop() {
				if build().NumNodes() == 0 {
					b.Fatal("empty truss hierarchy")
				}
			}
		})
	}
}
