package peel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// checkParallelMatches asserts both entry points reproduce the reference
// peel's κ — Run, and RunThreads at every thread count — that each Order is
// a valid peeling order, and that RunThreads' does not depend on the
// thread count it is handed.
func checkParallelMatches(t *testing.T, inst nucleus.Instance) {
	t.Helper()
	want := refPeel(inst)
	seq := Run(inst)
	checkKappa(t, "Run", inst, seq, want)
	checkValidOrder(t, inst, seq)
	ref := RunThreads(inst, 1)
	checkKappa(t, "RunThreads(1)", inst, ref, want)
	checkValidOrder(t, inst, ref)
	for _, threads := range []int{2, 3, 4, 8} {
		par := RunThreads(inst, threads)
		checkKappa(t, fmt.Sprintf("threads=%d", threads), inst, par, want)
		if !slices.Equal(par.Order, ref.Order) {
			t.Fatalf("threads=%d: order differs from the 1-worker order", threads)
		}
	}
}

func TestParallelCoreCompleteGraph(t *testing.T) {
	checkParallelMatches(t, nucleus.NewCore(graph.Complete(9)))
}

func TestParallelCoreFigure2(t *testing.T) {
	g := graph.Figure2()
	res := RunThreads(nucleus.NewCore(g), 4)
	want := []int32{1, 2, 2, 2, 1, 1}
	for v := range want {
		if res.Kappa[v] != want[v] {
			t.Fatalf("core numbers = %v, want %v", res.Kappa, want)
		}
	}
}

func TestParallelEmptyAndDegenerate(t *testing.T) {
	for _, threads := range []int{1, 4} {
		res := RunThreads(nucleus.NewCore(graph.Build(0, nil)), threads)
		if len(res.Kappa) != 0 || len(res.Order) != 0 || res.MaxKappa != 0 {
			t.Fatalf("threads=%d: empty graph peeled to %+v", threads, res)
		}
		res = RunThreads(nucleus.NewCore(graph.Build(11, nil)), threads)
		if len(res.Order) != 11 || res.MaxKappa != 0 {
			t.Fatalf("threads=%d: isolated vertices: %+v", threads, res)
		}
		// Truss of a triangle-free graph: all cells peel at level 0.
		res = RunThreads(nucleus.NewTruss(graph.Build(-1, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})), threads)
		if res.MaxKappa != 0 || len(res.Order) != 3 {
			t.Fatalf("threads=%d: path truss: %+v", threads, res)
		}
	}
}

func TestParallelZeroThreadsClamped(t *testing.T) {
	g := graph.CliqueChain(3, 5)
	res := RunThreads(nucleus.NewCore(g), 0)
	for v, k := range res.Kappa {
		if k != 4 {
			t.Fatalf("core(%d) = %d, want 4", v, k)
		}
	}
}

func TestParallelCoreMatchesSequentialQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(60)
		m := rng.Intn(3 * n)
		edges := make([][2]uint32, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
		}
		g := graph.Build(n, edges)
		checkParallelMatches(t, nucleus.NewCore(g))
	}
}

func TestParallelTrussAndN34Quick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 8; iter++ {
		n := 10 + rng.Intn(30)
		m := n + rng.Intn(4*n)
		edges := make([][2]uint32, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))})
		}
		g := graph.Build(n, edges)
		checkParallelMatches(t, nucleus.NewTruss(g))
		checkParallelMatches(t, nucleus.NewFlatTruss(g, 2))
		checkParallelMatches(t, nucleus.NewN34(g))
	}
}

// TestParallelLargeFrontier peels a graph whose min-degree bucket holds
// thousands of cells at once.
func TestParallelLargeFrontier(t *testing.T) {
	g := graph.GnM(4000, 16000, 5)
	checkParallelMatches(t, nucleus.NewCore(g))
}
