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

// Rows discovers edge e's row by one merge of its endpoints' adjacency:
// the two other edges of each triangle on e.
func (t *Truss) Rows() Rows {
	return DiscoveredRows(2, func(e int32, buf []int32) []int32 {
		cliques.ForEachTriangleOfEdge(t.G, int64(e), func(_ uint32, euw, evw int64) bool {
			buf = append(buf, int32(euw), int32(evw))
			return true
		})
		return buf
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

// NewN34 returns the (3,4) instance of g over its triangle index
// (cliques.TriangleIndexOf), with sequential degree initialization;
// Build(g, FamilyN34, 0, threads) parallelizes it.
func NewN34(g *graph.Graph) *N34 {
	inst, _ := Build(g, FamilyN34, 0, 1)
	return inst.(*N34)
}

func (n *N34) R() int        { return 3 }
func (n *N34) S() int        { return 4 }
func (n *N34) NumCells() int { return n.Idx.Len() }

func (n *N34) Degrees() []int32 {
	return append([]int32(nil), n.deg...)
}

// Rows discovers triangle t's row by a three-way adjacency intersection:
// the three other triangles of each 4-clique on t.
func (n *N34) Rows() Rows {
	return DiscoveredRows(3, func(t int32, buf []int32) []int32 {
		n.Idx.ForEachK4OfTriangle(n.G, t, func(_ uint32, t1, t2, t3 int32) bool {
			buf = append(buf, t1, t2, t3)
			return true
		})
		return buf
	})
}

func (n *N34) CellVertices(t int32, buf []uint32) []uint32 {
	tri := n.Idx.Triangle(t)
	return append(buf, tri[0], tri[1], tri[2])
}

func (n *N34) CellLabel(t int32) string { return cellLabel(n.CellVertices(t, nil)) }
