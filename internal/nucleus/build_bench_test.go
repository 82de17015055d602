package nucleus

import (
	"fmt"
	"testing"

	"nucleus/internal/graph"
)

// BenchmarkBuildN34 times the stored (3,4) instance as the lib_nucleus
// workload builds it — triangle index, 4-clique count, group pass and
// scatter, no budget — on that workload's input (12 × 80 planted
// communities, round 0 of seed 1) at one and two threads.
func BenchmarkBuildN34(b *testing.B) {
	g := graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003)
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, rep := Build(g, FamilyN34, -1, p); !rep.Indexed {
					b.Fatalf("not indexed: %s", rep.Reason)
				}
			}
		})
	}
}
