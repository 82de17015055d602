package nucleus

import (
	"fmt"
	"testing"

	"nucleus/internal/graph"
)

// benchBuild times Build of one family as the lib_nucleus workload runs it,
// on that workload's input (12 × 80 planted communities, round 0 of seed 1)
// at one and two threads, under the given budget (-1 stores, 0 does not).
func benchBuild(b *testing.B, fam Family, budget int64) {
	g := graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	g.Edges() // number the edges outside the timed loop
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, rep := Build(g, fam, budget, p); rep.Indexed != (budget != 0) {
					b.Fatalf("indexed %v under budget %d: %s", rep.Indexed, budget, rep.Reason)
				}
			}
		})
	}
}

// BenchmarkBuildN34 times the stored (3,4) instance: triangle index,
// 4-clique count, group pass and scatter.
func BenchmarkBuildN34(b *testing.B) { benchBuild(b, FamilyN34, -1) }

// BenchmarkBuildTruss times the stored (2,3) instance — orientation,
// triangle count, group pass and scatter — and, at budget 0, the
// on-the-fly one, which stops after the count.
func BenchmarkBuildTruss(b *testing.B) {
	b.Run("stored", func(b *testing.B) { benchBuild(b, FamilyTruss, -1) })
	b.Run("budget0", func(b *testing.B) { benchBuild(b, FamilyTruss, 0) })
}
