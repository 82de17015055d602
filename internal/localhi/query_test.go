package localhi_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/query"
)

// regionCells returns the cells package query restricts a run to: the
// vertices within hops of the seeds, or for truss (edges true) the edges
// with both endpoints among them.
func regionCells(g *graph.Graph, seeds []uint32, hops int, edges bool) []int32 {
	region := g.BFSWithin(seeds, hops)
	var cells []int32
	for _, u := range region {
		if !edges {
			cells = append(cells, int32(u))
			continue
		}
		eids := g.EdgeIDs(u)
		for i, v := range g.Neighbors(u) {
			if v > u && slices.Contains(region, v) {
				cells = append(cells, int32(eids[i]))
			}
		}
	}
	return cells
}

// TestQueryMatchesReference drives the query-driven mode (package query,
// And with notification over a Subset) through the active-set sweep: for
// random query vertices and edges at 0 to 3 hops, converged and at a
// budget of 2 sweeps, on RMAT and planted graphs, CoreNumbers,
// TrussNumbers and their …On forms return the τ, ActiveCells and Sweeps
// of refAnd, the flag-scanning loop And replaced, over the same cells.
func TestQueryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for gi, g := range []*graph.Graph{graph.RMAT(9, 8, 0.57, 0.19, 0.19, 3), graph.PlantedCommunities(4, 30, 0.4, 120, 7)} {
		core := nucleus.NewCore(g)
		truss, _, _ := nucleus.For(g, nucleus.FamilyTruss, nucleus.LibraryIndexBudget, 1)
		for trial := 0; trial < 4; trial++ {
			var verts, ends []uint32
			var edges [][2]uint32
			for len(edges) < 1+rng.Intn(4) {
				v := uint32(rng.Intn(g.N()))
				if nb := g.Neighbors(v); len(nb) > 0 {
					w := nb[rng.Intn(len(nb))]
					verts, ends, edges = append(verts, v), append(ends, v, w), append(edges, [2]uint32{v, w})
				}
			}
			for hops := 0; hops <= 3; hops++ {
				for _, budget := range []int{0, 2} {
					name := fmt.Sprintf("g%d/trial%d/hops=%d/sweeps=%d", gi, trial, hops, budget)
					checkQuery(t, name+"/CoreNumbers", core, regionCells(g, verts, hops, false), budget,
						query.CoreNumbers(g, verts, hops, budget), query.CoreNumbersOn(core, g, verts, hops, budget))
					checkQuery(t, name+"/TrussNumbers", truss, regionCells(g, ends, hops, true), budget,
						query.TrussNumbers(g, edges, hops, budget), query.TrussNumbersOn(truss, g, edges, hops, budget))
				}
			}
		}
	}
}

// checkQuery holds each estimate to refAnd over cells.
func checkQuery(t *testing.T, name string, inst nucleus.Instance, cells []int32, budget int, ests ...*query.Estimate) {
	t.Helper()
	want := localhi.RefAnd(inst, localhi.Options{Subset: cells, MaxSweeps: budget, Notification: true})
	for i, est := range ests {
		if est.ActiveCells != len(cells) || est.Result.Sweeps != want.Sweeps || !slices.Equal(est.Result.Tau, want.Tau) {
			t.Fatalf("%s (form %d): %d cells, %d sweeps; reference %d cells, %d sweeps, τ equal: %v",
				name, i, est.ActiveCells, est.Result.Sweeps, len(cells), want.Sweeps, slices.Equal(est.Result.Tau, want.Tau))
		}
	}
}
