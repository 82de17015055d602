package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkBuild(b *testing.B) {
	edges := GnM(5000, 40000, 1).Edges() // sorted, upper-triangle: the easy input
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(5000, edges)
	}
}

// benchInput is the input of the benchmark's lib_core workload: RMAT(14,8)
// seed 1, its edges in shuffled order and random orientation, the way an
// edge list arrives from a file.
func benchInput() (n int, edges [][2]uint32) {
	g := RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	edges = g.Edges()
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := range edges {
		if rng.Intn(2) == 0 {
			edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
		}
	}
	return g.N(), edges
}

// BenchmarkBuildShuffled times the build a k-core request pays (rows only)
// beside the one a truss request pays (rows, then ids on first use).
func BenchmarkBuildShuffled(b *testing.B) {
	n, edges := benchInput()
	for _, threads := range []int{1, 2} {
		for _, ids := range []bool{false, true} {
			b.Run(fmt.Sprintf("threads=%d/ids=%v", threads, ids), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g := BuildThreads(n, edges, threads)
					if ids {
						g.EdgeIDs(0)
					}
				}
			})
		}
	}
}

// BenchmarkPatch republishes the same graph with 16 rows touched, as a
// 16-edit write batch does at most twice over.
func BenchmarkPatch(b *testing.B) {
	n, edges := benchInput()
	g := Build(n, edges)
	rows := map[uint32][]uint32{}
	for u := uint32(0); len(rows) < 16; u += 97 {
		rows[u] = g.Neighbors(u)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Patch(n, rows)
	}
}

func BenchmarkGnM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GnM(5000, 40000, int64(i))
	}
}

func BenchmarkRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RMAT(12, 8, 0.57, 0.19, 0.19, int64(i))
	}
}

func BenchmarkPowerLawCluster(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PowerLawCluster(4000, 8, 0.5, int64(i))
	}
}

func BenchmarkDegeneracyOrder(b *testing.B) {
	b.ReportAllocs()
	g := RMAT(13, 8, 0.57, 0.19, 0.19, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DegeneracyOrder()
	}
}

func BenchmarkEdgeID(b *testing.B) {
	b.ReportAllocs()
	g := RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	edges := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		g.EdgeID(e[0], e[1])
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	b.ReportAllocs()
	g := GnM(10000, 30000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}

func BenchmarkBFSWithin(b *testing.B) {
	b.ReportAllocs()
	g := PowerLawCluster(10000, 6, 0.4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSWithin([]uint32{uint32(i % g.N())}, 2)
	}
}
