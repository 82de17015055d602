// Community hierarchy: the paper's motivating use case — hierarchical
// dense subgraph discovery. On a citation-network-like graph of planted
// communities, the (3,4) nucleus hierarchy recovers the planted structure:
// each dense community appears as its own deep nucleus, nested inside
// sparser ancestors, while coarser decompositions blur them together.
package main

import (
	"fmt"
	"os"

	"nucleus"
)

func main() {
	// 6 dense communities of 30 vertices plus a sparse backbone — think
	// "research areas" in a citation graph.
	g := nucleus.PlantedCommunities(6, 30, 0.45, 400, 7)
	fmt.Printf("graph: %d vertices, %d edges, 6 planted communities\n\n", g.N(), g.M())

	for _, dec := range []nucleus.Decomposition{nucleus.KCore, nucleus.KTruss, nucleus.Nucleus34} {
		res := nucleus.Decompose(g, dec, nucleus.Options{})
		forest := nucleus.BuildHierarchy(g, dec, res.Kappa)
		fmt.Printf("--- %v hierarchy (%d nuclei) ---\n", dec, forest.NumNodes())
		// Show nuclei with at least 40 cells: the interesting dense parts.
		forest.Print(os.Stdout, g, 40)

		// Report the leaves — the densest discovered subgraphs. Node ids
		// run from the largest k down, so the first leaf is the deepest.
		if leaves := forest.Leaves(); len(leaves) > 0 {
			deepest := leaves[0]
			fmt.Printf("%d leaves; deepest nucleus: k=%d, %d vertices, density %.2f\n\n",
				len(leaves), forest.K[deepest], len(forest.Vertices(deepest)), forest.Stats(g).Density(deepest))
		}
	}
}
