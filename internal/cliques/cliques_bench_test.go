package cliques

import (
	"fmt"
	"testing"

	"nucleus/internal/graph"
)

func benchGraph() *graph.Graph {
	return graph.PlantedCommunities(20, 80, 0.35, 1500, 42)
}

func BenchmarkCountPerEdge(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountPerEdge(g)
	}
}

func BenchmarkTriangleEnumeration(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total = Count(g)
	}
	b.ReportMetric(float64(total), "triangles")
}

func BenchmarkBuildTriangleIndex(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTriangleIndexThreads(g, 1)
	}
}

func BenchmarkK4DegreePerTriangle(b *testing.B) {
	g := benchGraph()
	idx := BuildTriangleIndexThreads(g, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.K4DegreePerTriangleParallel(g, 1)
	}
}

// nucleusBenchGraph is the bench's lib_nucleus input (12 × 80 planted
// communities, round 0 of seed 1).
func nucleusBenchGraph() *graph.Graph {
	return graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
}

// BenchmarkK4Count times the count pass (K4DegreePerTriangleParallel) on
// the lib_nucleus input at one and two threads.
func BenchmarkK4Count(b *testing.B) {
	g := nucleusBenchGraph()
	ti := BuildTriangleIndexThreads(g, 1)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ti.K4DegreePerTriangleParallel(g, p)
			}
		})
	}
}

// BenchmarkBuildK4Incidence times the group pass and scatter, degrees
// given, on the lib_nucleus input at one and two threads.
func BenchmarkBuildK4Incidence(b *testing.B) {
	g := nucleusBenchGraph()
	ti := BuildTriangleIndexThreads(g, 1)
	deg := ti.K4DegreePerTriangleParallel(g, 1)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				BuildK4Incidence(g, ti, deg, p)
			}
		})
	}
}

func BenchmarkForEachTriangleOfEdge(b *testing.B) {
	g := benchGraph()
	m := g.M()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForEachTriangleOfEdge(g, int64(i)%m, func(uint32, int64, int64) bool { return true })
	}
}

func BenchmarkCountKCliques5(b *testing.B) {
	g := graph.PlantedCommunities(4, 30, 0.5, 50, 9)
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		total = CountKCliques(g, 5)
	}
	b.ReportMetric(float64(total), "5-cliques")
}
