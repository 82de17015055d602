// Package query implements the paper's query-driven scenario (§1.2, §5):
// estimating the core or truss numbers of a handful of query cells without
// decomposing the whole graph. The local algorithms make this possible
// because the update of a cell only reads its s-clique co-members: running
// the iterations on the cells within h hops of the queries — everything
// else frozen at τ0 = its s-degree — produces an upper-bound estimate that
// tightens as h grows (by Theorem 1, τ never drops below κ).
//
// The iteration cost of a query is proportional to the region size, not
// the graph: Estimate.ActiveCells reports how many cells were touched.
// hops = 0 degenerates to τ = s-degree; a few hops usually recover the
// exact κ on real graphs. Constructing a Truss instance does pay a global
// per-edge triangle count — callers answering repeated queries should
// build the instance once and use the *On variants (the nucleusd
// /estimate endpoints memoize instances per registered graph this way).
package query

import (
	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
)

// Estimate holds a query-driven estimation result.
type Estimate struct {
	// Tau[i] is the estimated κ of the i-th query cell.
	Tau []int32
	// ActiveCells is the number of cells the computation touched.
	ActiveCells int
	// Result is the underlying bounded local run.
	Result *localhi.Result
}

// restricted runs the local iterations over the given cell subset only.
// An empty subset short-circuits to τ = s-degree (the hops-independent
// upper bound): passing it to the engine would mean "all cells" and
// silently run a full-graph decomposition.
func restricted(inst nucleus.Instance, cells []int32, maxSweeps int) *localhi.Result {
	if len(cells) == 0 {
		return &localhi.Result{Tau: inst.Degrees()}
	}
	return localhi.And(inst, localhi.Options{
		Subset:       cells,
		MaxSweeps:    maxSweeps,
		Notification: true,
	})
}

// CoreNumbers estimates κ₂ for the query vertices using the cells within
// `hops` BFS hops and at most maxSweeps local iterations (0 = until the
// restricted computation converges).
func CoreNumbers(g *graph.Graph, queries []uint32, hops, maxSweeps int) *Estimate {
	return CoreNumbersOn(nucleus.NewCore(g), g, queries, hops, maxSweeps)
}

// CoreNumbersOn is CoreNumbers over a caller-supplied (1,2) instance of g,
// letting repeated queries share one instance.
func CoreNumbersOn(inst nucleus.Instance, g *graph.Graph, queries []uint32, hops, maxSweeps int) *Estimate {
	region := g.BFSWithin(queries, hops)
	cells := make([]int32, len(region))
	for i, v := range region {
		cells[i] = int32(v)
	}
	res := restricted(inst, cells, maxSweeps)
	out := &Estimate{ActiveCells: len(cells), Result: res}
	for _, q := range queries {
		out.Tau = append(out.Tau, res.Tau[q])
	}
	return out
}

// TrussNumbers estimates κ₃ for the query edges (given as endpoint pairs)
// using all edges within `hops` hops of either endpoint and at most
// maxSweeps local iterations.
func TrussNumbers(g *graph.Graph, queryEdges [][2]uint32, hops, maxSweeps int) *Estimate {
	inst, _, _ := nucleus.For(g, nucleus.FamilyTruss, nucleus.LibraryIndexBudget, 1)
	return TrussNumbersOn(inst, g, queryEdges, hops, maxSweeps)
}

// TrussNumbersOn is TrussNumbers over a caller-supplied (2,3) instance of
// g, amortizing the instance's global triangle count across queries.
func TrussNumbersOn(inst nucleus.Instance, g *graph.Graph, queryEdges [][2]uint32, hops, maxSweeps int) *Estimate {
	var seeds []uint32
	for _, e := range queryEdges {
		seeds = append(seeds, e[0], e[1])
	}
	region := g.BFSWithin(seeds, hops)
	inRegion := make(map[uint32]struct{}, len(region))
	for _, v := range region {
		inRegion[v] = struct{}{}
	}
	// The cell set is every edge with both endpoints in the region.
	var cells []int32
	for _, u := range region {
		eids := g.EdgeIDs(u)
		for i, v := range g.Neighbors(u) {
			if v > u {
				if _, ok := inRegion[v]; ok {
					cells = append(cells, int32(eids[i]))
				}
			}
		}
	}
	res := restricted(inst, cells, maxSweeps)
	out := &Estimate{ActiveCells: len(cells), Result: res}
	for _, e := range queryEdges {
		id, ok := g.EdgeID(e[0], e[1])
		if !ok {
			out.Tau = append(out.Tau, -1)
			continue
		}
		out.Tau = append(out.Tau, res.Tau[id])
	}
	return out
}
