package cliques

import (
	"testing"

	"nucleus/internal/graph"
)

func TestCountPerEdgeParallelMatches(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Complete(8),
		graph.PowerLawCluster(500, 5, 0.5, 73),
		graph.RMAT(10, 8, 0.57, 0.19, 0.19, 75),
		graph.Path(10),
		graph.Build(0, nil),
	} {
		want := CountPerEdge(g)
		for _, threads := range []int{1, 2, 3, 8, 100} {
			got := OrientEdges(g, threads).CountPerEdge(threads)
			if len(got) != len(want) {
				t.Fatalf("threads=%d: length mismatch", threads)
			}
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("threads=%d edge %d: %d vs %d", threads, e, got[e], want[e])
				}
			}
		}
	}
}

func BenchmarkCountPerEdgeParallel4(b *testing.B) {
	g := graph.PlantedCommunities(20, 80, 0.35, 1500, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OrientEdges(g, 4).CountPerEdge(4)
	}
}
