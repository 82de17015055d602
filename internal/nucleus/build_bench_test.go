package nucleus

import (
	"fmt"
	"testing"

	"nucleus/internal/graph"
)

// benchBuild times Build of one family as the lib_nucleus workload runs it,
// on that workload's input (12 × 80 planted communities, round 0 of seed 1)
// at one and two threads, under the budget derived from the index's size
// (-1 stores, 0 does not, below the size falls back).
func benchBuild(b *testing.B, fam Family, budget func(size int64) int64) {
	g := graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	g.Edges() // number the edges outside the timed loop
	_, full := Build(g, fam, -1, 1)
	bud := budget(full.IndexBytes)
	want := bud < 0 || (bud > 0 && bud >= full.IndexBytes)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, rep := Build(g, fam, bud, p); rep.Indexed != want {
					b.Fatalf("indexed %v under budget %d: %s", rep.Indexed, bud, rep.Reason)
				}
			}
		})
	}
}

// benchBudgets runs benchBuild for the stored instance and for the three
// ways it is refused: budget 0 (the count-only pass), and over budget one
// byte short of the index (a whole group pass, then the count pass) and at
// half its size (half a group pass, then the count pass).
func benchBudgets(b *testing.B, fam Family) {
	for _, c := range []struct {
		name   string
		budget func(size int64) int64
	}{
		{"stored", func(int64) int64 { return -1 }},
		{"budget0", func(int64) int64 { return 0 }},
		{"size-1", func(size int64) int64 { return size - 1 }},
		{"half", func(size int64) int64 { return size / 2 }},
	} {
		b.Run(c.name, func(b *testing.B) { benchBuild(b, fam, c.budget) })
	}
}

// BenchmarkBuildN34 times the (3,4) instance as lib_nucleus/alt builds it,
// beside a truss build: the graph's triangle index is already in its memo,
// so a stored build is the group pass, degrees counted off the groups, and
// scatter, and a refused one adds the K4 count. The cold index is
// cliques' BenchmarkBuildTriangleIndex.
func BenchmarkBuildN34(b *testing.B) { benchBudgets(b, FamilyN34) }

// BenchmarkBuildTruss times the (2,3) instance: orientation, group pass
// (which also records the triangle index), degrees counted off the groups,
// and scatter when stored; orientation and triangle count when refused.
func BenchmarkBuildTruss(b *testing.B) { benchBudgets(b, FamilyTruss) }
