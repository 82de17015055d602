package nucleus

import (
	"nucleus/internal/dynamic"
)

// DynamicGraph is a mutable graph that maintains its k-core decomposition
// incrementally: each edge insertion or removal repairs the core numbers by
// visiting only the vertices whose κ can change — on an insert, the κ=k
// vertices around the edge with enough neighbors to rise; on a remove, the
// ones that fall — never the whole graph. This pairs with the query-driven
// scenario of the local algorithms: both exploit that κ indices depend only
// on local structure.
type DynamicGraph = dynamic.Graph

// NewDynamicGraph creates a dynamic graph with n isolated vertices.
func NewDynamicGraph(n int) *DynamicGraph { return dynamic.New(n) }

// DynamicFromGraph initializes a dynamic graph from a static snapshot,
// computing the initial core numbers with the peeling baseline.
func DynamicFromGraph(g *Graph) *DynamicGraph { return dynamic.FromStatic(g) }

// WarmCoreNumbers recomputes core numbers after a batch of edge edits by
// warm-starting the local AND algorithm from the previous κ plus the
// insert count (a valid upper start: one insertion raises κ by at most
// one, and Lemma 2 guarantees convergence from any pointwise upper
// bound). Far cheaper than a cold run when the batch is small.
func WarmCoreNumbers(newG *Graph, oldKappa []int32, inserts int) []int32 {
	return dynamic.WarmCoreNumbers(newG, oldKappa, inserts).Tau
}

// WarmTrussNumbers recomputes truss numbers after a batch of edits; edges
// are matched between the old and new graph by endpoints.
func WarmTrussNumbers(newG, oldG *Graph, oldKappa []int32, inserts int) []int32 {
	return dynamic.WarmTrussNumbers(newG, oldG, oldKappa, inserts).Tau
}
