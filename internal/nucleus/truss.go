package nucleus

import (
	"nucleus/internal/cliques"
	"nucleus/internal/graph"
)

// Truss is the k-truss (2,3) instance: cells are edges, s-cliques are the
// triangles containing an edge, discovered on the fly by adjacency
// intersection (the paper's §5 approach — the triangle hypergraph is never
// materialized).
type Truss struct {
	G *graph.Graph
	// deg caches the per-edge triangle counts (the initial s-degrees).
	deg []int32
}

// NewTruss returns the (2,3) instance of g with sequential degree
// initialization; Build(g, FamilyTruss, 0, threads) parallelizes it. The
// per-edge triangle count is the instance's only up-front cost.
func NewTruss(g *graph.Graph) *Truss { return &Truss{G: g, deg: cliques.CountPerEdge(g)} }

func (t *Truss) R() int        { return 2 }
func (t *Truss) S() int        { return 3 }
func (t *Truss) NumCells() int { return int(t.G.M()) }

func (t *Truss) Degrees() []int32 {
	return append([]int32(nil), t.deg...)
}

func (t *Truss) VisitSCliques(e int32, fn func(others []int32) bool) {
	var buf [2]int32
	cliques.ForEachTriangleOfEdge(t.G, int64(e), func(_ uint32, euw, evw int64) bool {
		buf[0], buf[1] = int32(euw), int32(evw)
		return fn(buf[:])
	})
}

func (t *Truss) VisitNeighbors(e int32, fn func(int32) bool) {
	cliques.ForEachTriangleOfEdge(t.G, int64(e), func(_ uint32, euw, evw int64) bool {
		return fn(int32(euw)) && fn(int32(evw))
	})
}

func (t *Truss) CellVertices(e int32, buf []uint32) []uint32 {
	u, v := t.G.Edge(int64(e))
	return append(buf, u, v)
}

func (t *Truss) CellLabel(e int32) string { return cellLabel(t.CellVertices(e, nil)) }

// N34 is the (3,4) nucleus instance: cells are triangles, s-cliques are the
// 4-cliques containing a triangle, discovered on the fly via three-way
// adjacency intersection over a triangle index.
type N34 struct {
	G   *graph.Graph
	Idx *cliques.TriangleIndex
	deg []int32
}

// NewN34 returns the (3,4) instance of g, enumerating and indexing all
// triangles, with sequential degree initialization;
// Build(g, FamilyN34, 0, threads) parallelizes it.
func NewN34(g *graph.Graph) *N34 { return newN34(g, 1) }

// newN34 builds the triangle index and runs the 4-clique count pass across
// threads; it allocates nothing proportional to the 4-clique count, so
// Build checks the memory budget before flatN34's group pass.
func newN34(g *graph.Graph, threads int) *N34 {
	idx := cliques.BuildTriangleIndexThreads(g, threads)
	return &N34{G: g, Idx: idx, deg: idx.K4DegreePerTriangleParallel(g, threads)}
}

func (n *N34) R() int        { return 3 }
func (n *N34) S() int        { return 4 }
func (n *N34) NumCells() int { return n.Idx.Len() }

func (n *N34) Degrees() []int32 {
	return append([]int32(nil), n.deg...)
}

func (n *N34) VisitSCliques(t int32, fn func(others []int32) bool) {
	var buf [3]int32
	n.Idx.ForEachK4OfTriangle(n.G, t, func(_ uint32, t1, t2, t3 int32) bool {
		buf[0], buf[1], buf[2] = t1, t2, t3
		return fn(buf[:])
	})
}

func (n *N34) VisitNeighbors(t int32, fn func(int32) bool) {
	n.Idx.ForEachK4OfTriangle(n.G, t, func(_ uint32, t1, t2, t3 int32) bool {
		return fn(t1) && fn(t2) && fn(t3)
	})
}

func (n *N34) CellVertices(t int32, buf []uint32) []uint32 {
	tri := n.Idx.List[t]
	return append(buf, tri[0], tri[1], tri[2])
}

func (n *N34) CellLabel(t int32) string { return cellLabel(n.CellVertices(t, nil)) }
