package cliques

import (
	"testing"

	"nucleus/internal/graph"
)

func enumFamilies() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"complete":           graph.Complete(9),
		"cliqueChain":        graph.CliqueChain(4, 6),
		"gnm":                graph.GnM(150, 700, 1),
		"barabasiAlbert":     graph.BarabasiAlbert(120, 6, 2),
		"rmat":               graph.RMAT(7, 4, 0.45, 0.22, 0.22, 3),
		"wattsStrogatz":      graph.WattsStrogatz(120, 6, 0.1, 4),
		"plantedCommunities": graph.PlantedCommunities(4, 15, 0.5, 40, 5),
		"powerLawCluster":    graph.PowerLawCluster(130, 5, 0.4, 6),
	}
}

// TestTrianglesParallelBitIdentical proves the parallel triangle index
// lists the exact sequence ForEach emits (Triangle by id), and assigns
// those ids, at every thread count.
func TestTrianglesParallelBitIdentical(t *testing.T) {
	for name, g := range enumFamilies() {
		var want []Triangle
		ForEach(g, func(tr Triangle) bool {
			want = append(want, tr)
			return true
		})
		for _, threads := range []int{1, 2, 4, 8} {
			idx := BuildTriangleIndexThreads(g, threads)
			if idx.Len() != len(want) {
				t.Fatalf("%s threads=%d: %d triangles, want %d", name, threads, idx.Len(), len(want))
			}
			for i := range want {
				if got := idx.Triangle(int32(i)); got != want[i] {
					t.Fatalf("%s threads=%d: triangle %d = %v, want %v", name, threads, i, got, want[i])
				}
			}
			for i, tr := range want {
				if id, ok := idx.ID(tr[0], tr[1], tr[2]); !ok || id != int32(i) {
					t.Fatalf("%s threads=%d: id(%v) = %d/%v, want %d", name, threads, tr, id, ok, i)
				}
			}
		}
	}
}

// TestKCliquesFlatBitIdentical proves the parallel k-clique enumeration
// reproduces ForEachKClique's emission order at every thread count, for
// the arities the generic (r,s) path uses.
func TestKCliquesFlatBitIdentical(t *testing.T) {
	for name, g := range enumFamilies() {
		for k := 1; k <= 5; k++ {
			var want []uint32
			ForEachKClique(g, k, func(members []uint32) bool {
				want = append(want, members...)
				return true
			})
			for _, threads := range []int{1, 2, 4, 8} {
				got := KCliquesFlat(g, k, threads)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d threads=%d: %d vertices, want %d", name, k, threads, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d threads=%d: flat[%d] = %d, want %d", name, k, threads, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestCountMatchesNaive holds the count-only walk to the triple-loop count
// on every generator family, and checks that it leaves no triangle index
// in the graph's memo.
func TestCountMatchesNaive(t *testing.T) {
	for name, g := range enumFamilies() {
		if got, want := Count(g), int64(len(naiveTriangles(g))); got != want {
			t.Fatalf("%s: Count = %d, naive %d", name, got, want)
		}
		if _, built := graph.Memo(g, indexKey{}, func() *TriangleIndex { return nil }); !built {
			t.Fatalf("%s: Count left a triangle index in the graph's memo", name)
		}
	}
}
