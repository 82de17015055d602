package hierarchy

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

func coreForest(g *graph.Graph) (*Forest, []int32) {
	inst := nucleus.NewCore(g)
	kappa := peel.Run(inst).Kappa
	return Build(inst, kappa), kappa
}

func TestSingleClique(t *testing.T) {
	g := graph.Complete(5)
	f, _ := coreForest(g)
	if len(f.Roots()) != 1 {
		t.Fatalf("roots = %d", len(f.Roots()))
	}
	r := f.Roots()[0]
	if f.K[r] != 4 || f.SubtreeCells(r) != 5 || len(f.Children(r)) != 0 {
		t.Fatalf("root = {K:%d cells:%d children:%d}", f.K[r], f.SubtreeCells(r), len(f.Children(r)))
	}
}

func TestCliqueChainHierarchy(t *testing.T) {
	// Three K5s joined by direct bridges keep min degree 4, so the whole
	// graph is one 4-core: a single flat root.
	g := graph.CliqueChain(3, 5)
	f, _ := coreForest(g)
	if len(f.Roots()) != 1 {
		t.Fatalf("roots = %d", len(f.Roots()))
	}
	root := f.Roots()[0]
	if f.K[root] != 4 || f.SubtreeCells(root) != 15 || len(f.Children(root)) != 0 {
		t.Fatalf("root = {K:%d cells:%d children:%d}", f.K[root], f.SubtreeCells(root), len(f.Children(root)))
	}
}

func TestHubAndCliquesHierarchy(t *testing.T) {
	// Three K5s each attached to a central hub by one edge: hub degree 3,
	// the whole graph is a 3-core, and each K5 is a 4-core child.
	var edges [][2]uint32
	hub := uint32(15)
	for c := 0; c < 3; c++ {
		base := uint32(c * 5)
		for i := uint32(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				edges = append(edges, [2]uint32{base + i, base + j})
			}
		}
		edges = append(edges, [2]uint32{hub, base})
	}
	g := graph.Build(16, edges)
	f, kappa := coreForest(g)
	if kappa[hub] != 3 {
		t.Fatalf("hub κ = %d, want 3", kappa[hub])
	}
	if len(f.Roots()) != 1 {
		t.Fatalf("roots = %d", len(f.Roots()))
	}
	root := f.Roots()[0]
	if f.K[root] != 3 {
		t.Fatalf("root K = %d, want 3", f.K[root])
	}
	if len(f.Children(root)) != 3 {
		t.Fatalf("root children = %d, want 3", len(f.Children(root)))
	}
	for _, c := range f.Children(root) {
		if f.K[c] != 4 || f.SubtreeCells(c) != 5 || f.Parent[c] != root {
			t.Fatalf("child = {K:%d cells:%d parent:%d}", f.K[c], f.SubtreeCells(c), f.Parent[c])
		}
	}
	if f.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4", f.NumNodes())
	}
}

func TestDisconnectedComponents(t *testing.T) {
	// Two disjoint triangles: two roots, each a 2-core of 3 cells.
	g := graph.Build(6, [][2]uint32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}})
	f, _ := coreForest(g)
	if len(f.Roots()) != 2 {
		t.Fatalf("roots = %d, want 2", len(f.Roots()))
	}
	for _, r := range f.Roots() {
		if f.K[r] != 2 || f.SubtreeCells(r) != 3 || f.Parent[r] != None {
			t.Fatalf("root = {K:%d cells:%d parent:%d}", f.K[r], f.SubtreeCells(r), f.Parent[r])
		}
	}
}

func TestFigure2Hierarchy(t *testing.T) {
	// κ = {a:1,b:2,c:2,d:2,e:1,f:1}: a 1-core root with the {b,c,d}
	// 2-core child.
	g := graph.Figure2()
	f, _ := coreForest(g)
	if len(f.Roots()) != 1 {
		t.Fatalf("roots = %d", len(f.Roots()))
	}
	root := f.Roots()[0]
	if f.K[root] != 1 || f.SubtreeCells(root) != 6 || len(f.Children(root)) != 1 {
		t.Fatalf("root = {K:%d cells:%d children:%d}", f.K[root], f.SubtreeCells(root), len(f.Children(root)))
	}
	child := f.Children(root)[0]
	if f.K[child] != 2 || f.SubtreeCells(child) != 3 {
		t.Fatalf("child = {K:%d cells:%d}", f.K[child], f.SubtreeCells(child))
	}
	vs := f.Vertices(child)
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Fatalf("child vertices = %v, want [1 2 3]", vs)
	}
}

// TestNestingInvariant: along every root-to-leaf path, K strictly
// increases, every cell appears exactly once in the forest, and the κ of
// the cells stored at a node equals the node's K.
func TestNestingInvariant(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		inst := nucleus.NewCore(g)
		kappa := peel.Run(inst).Kappa
		f := Build(inst, kappa)
		seen := make(map[int32]bool)
		ok := true
		var walk func(n Node, parentK int32)
		walk = func(n Node, parentK int32) {
			if f.K[n] <= parentK {
				ok = false
			}
			for _, c := range f.Cells(n) {
				if seen[c] || kappa[c] != f.K[n] || f.Find(c) != n {
					ok = false
				}
				seen[c] = true
			}
			for _, ch := range f.Children(n) {
				walk(ch, f.K[n])
			}
		}
		for _, r := range f.Roots() {
			walk(r, -1)
		}
		return ok && len(seen) == inst.NumCells()
	})
}

// TestComponentsInvariant: the number of roots equals the number of
// connected components containing at least one cell (for (1,2): all
// vertices).
func TestComponentsInvariant(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		f, _ := coreForest(g)
		_, count := g.ConnectedComponents()
		return len(f.Roots()) == count
	})
}

func TestTrussHierarchy(t *testing.T) {
	// Nucleus34Toy under (2,3): the pendant edge gh lies in no triangle, so
	// it is its own S-connected component (a singleton 0-truss root); the
	// two dense blocks are triangle-connected through edge cd and form the
	// second root, whose deepest nucleus is the K5 block (truss 3).
	g := graph.Nucleus34Toy()
	inst := nucleus.NewTruss(g)
	kappa := peel.Run(inst).Kappa
	f := Build(inst, kappa)
	if len(f.Roots()) != 2 {
		t.Fatalf("roots = %d, want 2", len(f.Roots()))
	}
	// Roots come in id order, largest K first: the blocks, then gh.
	blocks, pendant := f.Roots()[0], f.Roots()[1]
	if f.K[pendant] != 0 || f.SubtreeCells(pendant) != 1 {
		t.Fatalf("pendant root = {K:%d cells:%d}", f.K[pendant], f.SubtreeCells(pendant))
	}
	if f.K[blocks] != 2 {
		t.Fatalf("block root K = %d, want 2", f.K[blocks])
	}
	// Walk to the deepest node (a node's first child has its largest K);
	// it must be the K5 block's edges.
	deepest := blocks
	for len(f.Children(deepest)) > 0 {
		deepest = f.Children(deepest)[0]
	}
	if f.K[deepest] != 3 {
		t.Fatalf("deepest truss K = %d, want 3", f.K[deepest])
	}
	vs := f.Vertices(deepest)
	want := []uint32{2, 3, 4, 5, 7} // c,d,e,f,h
	if len(vs) != len(want) {
		t.Fatalf("deepest vertices = %v, want %v", vs, want)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("deepest vertices = %v, want %v", vs, want)
		}
	}
}

func TestN34HierarchySeparateNuclei(t *testing.T) {
	// The paper's Figure 3 point: the two dense blocks are separate
	// 1-(3,4) nuclei, because no 4-clique spans them.
	g := graph.Nucleus34Toy()
	inst := nucleus.NewN34(g)
	kappa := peel.Run(inst).Kappa
	f := Build(inst, kappa)
	// The K4 block (κ=1) and the K5 block's nucleus chain (κ=2) must
	// appear under different K>=1 subtrees: collect the top-level K>=1
	// nodes (those whose parent is K=0 or a root).
	tops := f.NucleiAt(1)
	if len(tops) != 2 {
		t.Fatalf("top-level (3,4) nuclei = %d, want 2 (separate blocks)", len(tops))
	}
}

func TestDensityIncreasesWithDepth(t *testing.T) {
	g := graph.CliqueChain(3, 6)
	f, _ := coreForest(g)
	root := f.Roots()[0]
	st := f.Stats(g)
	for _, c := range f.Children(root) {
		if d := st.Density(c); d <= st.Density(root) {
			t.Fatalf("child density %.3f <= root %.3f", d, st.Density(root))
		}
		if d := st.Density(c); d != 1.0 {
			t.Fatalf("K6 block density = %.3f, want 1.0", d)
		}
	}
}

func TestPrint(t *testing.T) {
	g := graph.CliqueChain(2, 4)
	f, _ := coreForest(g)
	var buf bytes.Buffer
	f.Print(&buf, g, 0)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
	// minSize elides small nuclei.
	var buf2 bytes.Buffer
	f.Print(&buf2, g, 1<<30)
	if buf2.Len() != 0 {
		t.Fatal("minSize did not elide")
	}
}

func TestDensityEdgeCases(t *testing.T) {
	g := graph.Build(2, [][2]uint32{{0, 1}})
	inst := nucleus.NewCore(g)
	f := Build(inst, peel.Run(inst).Kappa)
	if d := f.Stats(g).Density(f.Roots()[0]); d != 1.0 {
		t.Fatalf("single edge density = %v", d)
	}
}

func quickGraphs(t *testing.T, pred func(*graph.Graph) bool) {
	t.Helper()
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%30) + 2
		m := int(mRaw%100) + 1
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		return pred(graph.GnM(n, m, seed))
	}, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(15))})
	if err != nil {
		t.Fatal(err)
	}
}
