// Package nucleus defines the cell abstraction shared by all (r,s) nucleus
// decompositions and its concrete instances.
//
// Following the paper, an (r,s) decomposition assigns to every r-clique
// ("cell") the largest k such that the cell belongs to a k-(r,s) nucleus.
// All algorithms (peeling, SND, AND, the forest) are written against the
// Instance interface below, which exposes exactly the local structure they
// need: the s-degree of every cell and its row — the co-member cells of
// every s-clique containing it.
//
// There are four instances, split along the paper's one real fork (§5:
// discover the s-cliques on the fly, or store them). The fork ends at
// Rows: every consumer runs one row loop over either side.
//
//	Core  — (1,2): cells are vertices, s-cliques are edges; the CSR *is*
//	        the stored incidence and is served as rows of co-arity 1 over
//	        the graph's own arrays, so nothing is stored
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
	// Rows returns the s-clique incidence: per cell, the ids of the other
	// member cells of each s-clique containing it.
	Rows() Rows
	// CellVertices appends the vertices of cell c to buf and returns it.
	CellVertices(c int32, buf []uint32) []uint32
	// CellLabel formats cell c for diagnostics.
	CellLabel(c int32) string
}

// Rows is an instance's s-clique incidence: cell c's s-cliques are
// Row(c, buf), Co consecutive co-member cell ids per s-clique (1 for
// (1,2), 2 for (2,3), 3 for (3,4)). Stored rows (Core, Flat) are the flat
// CSR arrays Offs and Mem, immutable and shared with the instance;
// discovered rows (Truss, N34) have neither and are found one cell at a
// time (DiscoveredRows).
type Rows struct {
	Offs []int64
	Mem  []int32
	Co   int
	// fill appends cell c's row to buf; discovered is fill != nil, kept as
	// a flag because testing it keeps Row within the inlining budget.
	fill       func(c int32, buf []int32) []int32
	discovered bool
}

// DiscoveredRows returns rows that are found on demand: fill appends cell
// c's row, co ids per s-clique, to buf and returns it.
func DiscoveredRows(co int, fill func(c int32, buf []int32) []int32) Rows {
	return Rows{Co: co, fill: fill, discovered: true}
}

// Row returns the co-members of cell c's s-cliques, Co ids per s-clique. A
// stored row is a slice of Mem, read in place, and buf is not touched; a
// discovered one is filled into *buf, which keeps its capacity for the
// next call, and is valid until then. Each concurrent caller owns its buf.
func (r *Rows) Row(c int32, buf *[]int32) []int32 {
	if r.discovered {
		return r.discover(c, buf)
	}
	return r.Mem[r.Offs[c]:r.Offs[c+1]]
}

// discover is Row's discovered side, kept out of line so that the stored
// side inlines into every row loop.
//
//go:noinline
func (r *Rows) discover(c int32, buf *[]int32) []int32 {
	*buf = r.fill(c, (*buf)[:0])
	return *buf
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

// Rows serves the graph's own CSR at co-arity 1: the co-members of u's
// edges are u's neighbors, so the adjacency already is the stored
// incidence and nothing is copied.
func (c *Core) Rows() Rows {
	offs, adj := c.G.CSR()
	return Rows{Offs: offs, Mem: adj, Co: 1}
}

func (c *Core) CellVertices(u int32, buf []uint32) []uint32 {
	return append(buf, uint32(u))
}

func (c *Core) CellLabel(u int32) string { return fmt.Sprintf("v%d", u) }
