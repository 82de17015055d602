package graph_test

import (
	"math/rand"
	"testing"

	"nucleus"
	"nucleus/internal/dynamic"
	"nucleus/internal/graph"
)

// TestCoreOnlyPipelinesNeverNumberEdges: edge ids are the cells of k-truss,
// and nothing that reads a graph only through its rows pays for them —
// neither the library's k-core calls nor a write path's publish — while the
// first decomposition that needs them numbers the edges exactly once.
func TestCoreOnlyPipelinesNeverNumberEdges(t *testing.T) {
	src := graph.RMAT(9, 8, 0.57, 0.19, 0.19, 1)
	edges := src.Edges()
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

	g := nucleus.BuildGraphThreads(src.N(), edges, 2)
	unnumbered := func(g *graph.Graph, after string) {
		t.Helper()
		if graph.NumberedIDs(g) != nil {
			t.Fatalf("edges were numbered by %s", after)
		}
	}
	unnumbered(g, "BuildGraphThreads")
	and := nucleus.Decompose(g, nucleus.KCore, nucleus.Options{Algorithm: nucleus.AND, Threads: 2})
	unnumbered(g, "Decompose(KCore, AND)")
	peeled := nucleus.Decompose(g, nucleus.KCore, nucleus.Options{Algorithm: nucleus.Peel, Threads: 2})
	unnumbered(g, "Decompose(KCore, Peel)")
	if forest := nucleus.BuildHierarchy(g, nucleus.KCore, peeled.Kappa); forest.NumNodes() == 0 {
		t.Fatal("empty core hierarchy")
	}
	unnumbered(g, "BuildHierarchy(KCore)")
	if g.M() != src.M() || !g.HasEdge(edges[0][0], edges[0][1]) || g.MaxDegree() != src.MaxDegree() {
		t.Fatal("the rebuilt graph lost edges")
	}
	unnumbered(g, "M, HasEdge and MaxDegree")

	// A write path: overlay from the maintained κ, a script of edits, publish.
	d := dynamic.FromStaticCores(g, and.Kappa)
	for i := 0; i < 64; i++ {
		u, v := uint32(rng.Intn(g.N()+2)), uint32(rng.Intn(g.N()+2))
		if rng.Intn(3) == 0 {
			d.RemoveEdge(u, v)
		} else {
			d.InsertEdge(u, v)
		}
	}
	published := d.Static()
	unnumbered(g, "a dynamic edit script")
	unnumbered(published, "dynamic.Graph.Static()")

	// Truss reads ids: numbered now, once, and never again.
	nucleus.DecomposeRS(published, 2, 3, nucleus.Options{Algorithm: nucleus.AND, Threads: 2})
	table := graph.NumberedIDs(published)
	if table == nil {
		t.Fatal("DecomposeRS(2,3) ran without edge ids")
	}
	nucleus.DecomposeRS(published, 2, 3, nucleus.Options{Algorithm: nucleus.Peel, Threads: 2})
	published.Edges()
	published.EdgeID(published.Edge(0))
	if graph.NumberedIDs(published) != table {
		t.Fatal("edges were numbered a second time")
	}
	unnumbered(g, "decomposing the graph published from it")
}
