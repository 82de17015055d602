package nucleus_test

import (
	"fmt"

	"nucleus"
)

// The paper's Figure 2 toy graph: f—e—a—b plus the triangle {b,c,d}.
func figure2() *nucleus.Graph {
	return nucleus.BuildGraph(6, [][2]uint32{
		{0, 4}, {0, 1}, // a-e, a-b
		{1, 2}, {1, 3}, // b-c, b-d
		{2, 3}, // c-d
		{4, 5}, // e-f
	})
}

func ExampleDecompose() {
	g := figure2()
	res := nucleus.Decompose(g, nucleus.KCore, nucleus.Options{Algorithm: nucleus.SND})
	fmt.Println("core numbers:", res.Kappa)
	fmt.Println("iterations:", res.Iterations)
	// Output:
	// core numbers: [1 2 2 2 1 1]
	// iterations: 2
}

func ExampleDecompose_truss() {
	// K5: every edge is in 3 triangles; uniform truss number 3.
	var edges [][2]uint32
	for u := uint32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, [2]uint32{u, v})
		}
	}
	g := nucleus.BuildGraph(5, edges)
	res := nucleus.Decompose(g, nucleus.KTruss, nucleus.Options{})
	fmt.Println("max truss:", res.MaxKappa)
	fmt.Println("histogram:", res.Histogram())
	// Output:
	// max truss: 3
	// histogram: [0 0 0 10]
}

func ExampleBuildHierarchy() {
	g := figure2()
	res := nucleus.Decompose(g, nucleus.KCore, nucleus.Options{})
	forest := nucleus.BuildHierarchy(g, nucleus.KCore, res.Kappa)
	root := forest.Roots()[0]
	fmt.Printf("root: k=%d cells=%d\n", forest.K[root], forest.SubtreeCells(root))
	child := forest.Children(root)[0]
	fmt.Printf("child: k=%d vertices=%v\n", forest.K[child], forest.Vertices(child))
	// Output:
	// root: k=1 cells=6
	// child: k=2 vertices=[1 2 3]
}

func ExampleEstimateCoreNumbers() {
	g := figure2()
	// Estimate the core number of vertex b (id 1) from its 1-hop
	// neighborhood only.
	est := nucleus.EstimateCoreNumbers(g, []uint32{1}, 1, 0)
	fmt.Println("estimate:", est.Tau[0], "cells touched:", est.ActiveCells)
	// Output:
	// estimate: 2 cells touched: 4
}

func ExampleKendallTau() {
	exact := []int32{1, 2, 2, 3}
	approx := []int32{1, 2, 2, 3}
	fmt.Printf("%.1f\n", nucleus.KendallTau(approx, exact))
	// Output:
	// 1.0
}
