// Package nucleus defines the cell abstraction shared by all (r,s) nucleus
// decompositions and its concrete instances.
//
// Following the paper, an (r,s) decomposition assigns to every r-clique
// ("cell") the largest k such that the cell belongs to a k-(r,s) nucleus.
// All algorithms (peeling, SND, AND) are written against the Instance
// interface below, which exposes exactly the local structure they need:
// the s-degree of every cell and iteration over the s-cliques containing a
// cell (with the co-member cells).
//
// There are four instances, split along the paper's one real fork (§5:
// discover the s-cliques on the fly, or store them):
//
//	Core  — (1,2): cells are vertices, s-cliques are edges; the CSR *is*
//	        the flat incidence and is served as one (FlatIncidence at
//	        co-arity 1 over the graph's own arrays), so nothing is stored
//	Truss — (2,3) on the fly: triangles found by adjacency intersection
//	N34   — (3,4) on the fly: 4-cliques found by adjacency intersection,
//	        triangle ids looked up by position (cliques.TriangleIndex)
//	Flat  — any (r,s) stored: a flat CSR of co-member cell ids, built from
//	        the edge incidence, the 4-clique incidence, or by enumeration
//
// Build picks between a family's Flat and on-the-fly instance under a
// memory budget, and For memoizes its instance on the graph; every library
// entry point and the server call For, the library with 1 GiB, so the
// on-the-fly instances serve only over budget. The explicit-hypergraph
// oracle the instances are tested against lives in internal/nucleustest.
package nucleus

import (
	"fmt"

	"nucleus/internal/graph"
)

// Instance exposes the cell structure of one (r,s) decomposition.
type Instance interface {
	// R and S identify the decomposition; R < S.
	R() int
	S() int
	// NumCells returns the number of r-cliques.
	NumCells() int
	// Degrees returns the s-degree of every cell (a fresh slice).
	Degrees() []int32
	// VisitSCliques calls fn once per s-clique containing cell c, passing
	// the ids of the other member cells. The slice is reused across calls;
	// fn must not retain it. Iteration stops early when fn returns false.
	VisitSCliques(c int32, fn func(others []int32) bool)
	// CellVertices appends the vertices of cell c to buf and returns it.
	CellVertices(c int32, buf []uint32) []uint32
	// CellLabel formats cell c for diagnostics.
	CellLabel(c int32) string
}

// ---------------------------------------------------------------------------
// Core: the (1,2) instance. Cells are vertices; s-cliques are edges; the
// co-member of the edge {u,v} from u's perspective is v.

// Core is the k-core (1,2) instance over a graph.
type Core struct {
	G *graph.Graph
}

// NewCore returns the (1,2) instance of g.
func NewCore(g *graph.Graph) *Core { return &Core{G: g} }

func (c *Core) R() int        { return 1 }
func (c *Core) S() int        { return 2 }
func (c *Core) NumCells() int { return c.G.N() }

func (c *Core) Degrees() []int32 { return c.G.Degrees() }

// Rows implements FlatIncidence at co-arity 1 over the graph's own CSR:
// the co-members of u's edges are u's neighbors, so the adjacency already
// is the stored incidence and nothing is copied.
func (c *Core) Rows() Rows {
	offs, adj := c.G.CSR()
	return Rows{offs, adj, 1}
}

func (c *Core) VisitSCliques(u int32, fn func(others []int32) bool) {
	var buf [1]int32
	for _, v := range c.G.Neighbors(uint32(u)) {
		buf[0] = int32(v)
		if !fn(buf[:]) {
			return
		}
	}
}

func (c *Core) CellVertices(u int32, buf []uint32) []uint32 {
	return append(buf, uint32(u))
}

func (c *Core) CellLabel(u int32) string { return fmt.Sprintf("v%d", u) }
