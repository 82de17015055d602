// Package cliques provides triangle and k-clique counting, enumeration and
// indexing on top of the graph package. These are the substrate for the
// (2,3) (k-truss) and (3,4) nucleus decompositions: edges are the cells of
// the former with triangles as their s-cliques, and triangles are the cells
// of the latter with 4-cliques as their s-cliques.
//
// Cliques are found over one oriented CSR, each once, from its lowest-rank
// vertex. A triangle's id is its position in that enumeration, so it is
// found by search in short rows, never hashed (TriangleIndex).
package cliques

import (
	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// Triangle is a vertex triple sorted ascending.
type Triangle [3]uint32

// CountPerEdge returns the number of triangles containing each edge,
// indexed by dense edge id: the count pass over OrientEdges(g, 1).
func CountPerEdge(g *graph.Graph) []int32 { return OrientEdges(g, 1).CountPerEdge(1) }

// OrientedEdges is the substrate of every stored (2,3) pass: the
// degree-oriented CSR with each slot's dense edge id, over which each
// triangle is found once, from its lowest-rank vertex (trianglesOfRoot).
type OrientedEdges struct {
	oriented
	g *graph.Graph
}

// OrientEdges orients g by degree rank, numbering g's edges if nothing has
// read an edge id yet.
func OrientEdges(g *graph.Graph, threads int) *OrientedEdges {
	return &OrientedEdges{orient(g, g.DegreeOrder(), true, threads), g}
}

// CountPerEdge is the count-only pass, the parallelizable degree
// initialization of the "partially parallel peeling" baseline (Figure 1b's
// Peeling-24t): every triangle adds one to each of its three edges, each
// worker into its own array, the arrays summed.
func (o *OrientedEdges) CountPerEdge(threads int) []int32 {
	degs, marks := make([][]int32, max(threads, 1)), make([][]int32, max(threads, 1))
	par.ForEachWorker(len(o.rank), 64, threads, func(w, lo, hi int) {
		deg, mark, eid := scratch(degs, w, len(o.adj)), scratch(marks, w, len(o.rank)), o.eid
		for u := lo; u < hi; u++ {
			o.trianglesOfRoot(uint32(u), mark, func(uv, uw, vw int64) {
				deg[eid[uv]]++
				deg[eid[uw]]++
				deg[eid[vw]]++
			})
		}
	})
	return sumWorkers(degs, len(o.adj))
}

// scratch returns worker w's array of length n, allocating it zeroed on
// the worker's first use.
func scratch(per [][]int32, w, n int) []int32 {
	if per[w] == nil {
		per[w] = make([]int32, n)
	}
	return per[w]
}

// sumWorkers adds per-worker count arrays (nil for a worker that ran
// nothing) into one of length n.
func sumWorkers(per [][]int32, n int) []int32 {
	sum := make([]int32, n)
	for _, d := range per {
		for c, k := range d {
			sum[c] += k
		}
	}
	return sum
}

// ForEachTriangleOfEdge calls fn for every triangle containing edge e =
// {u,v}, passing the apex vertex w and the dense ids of the two other edges
// {u,w} and {v,w}. Iteration stops early if fn returns false. This is the
// on-the-fly Truss's discovery, an adjacency merge per call; the stored
// passes enumerate over OrientedEdges instead.
func ForEachTriangleOfEdge(g *graph.Graph, e int64, fn func(w uint32, euw, evw int64) bool) {
	u, v := g.Edge(e)
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	eu, ev := g.EdgeIDs(u), g.EdgeIDs(v)
	i, j := 0, 0
	for i < len(nu) && j < len(nv) {
		switch {
		case nu[i] < nv[j]:
			i++
		case nu[i] > nv[j]:
			j++
		default:
			if !fn(nu[i], eu[i], ev[j]) {
				return
			}
			i++
			j++
		}
	}
}

// Count returns the total number of triangles, keeping nothing (ForEach).
func Count(g *graph.Graph) (total int64) {
	ForEach(g, func(Triangle) bool { total++; return true })
	return total
}

// ForEach calls fn for every triangle exactly once, sorted ascending within
// the triple, in triangle-id order (TriangleIndex), over an orientation it
// drops on return. Iteration stops early if fn returns false.
func ForEach(g *graph.Graph, fn func(Triangle) bool) {
	o := orient(g, g.DegreeOrder(), false, 1)
	mark := make([]int32, g.N())
	more := true
	for u := uint32(0); more && int(u) < g.N(); u++ {
		o.trianglesOfRoot(u, mark, func(uv, _, vw int64) {
			more = more && fn(sortedTriple(u, o.adj[uv], o.adj[vw]))
		})
	}
}

// oriented is a graph's CSR oriented by a vertex rank — (degree, id) for
// triangles and 4-cliques, degeneracy for k-cliques: out(u) =
// adj[off[u]:off[u+1]] holds u's higher-ranked neighbours in id order, and
// slot k is oriented edge k = (u→adj[k]), whose dense edge id is eid[k]
// when the orientation was asked for ids.
type oriented struct {
	rank []int32
	off  []int64
	adj  []uint32
	eid  []int64
}

// orient builds it: parallel count, prefix sum, parallel fill.
func orient(g *graph.Graph, rank []int32, ids bool, threads int) oriented {
	n := g.N()
	o := oriented{rank: rank, off: make([]int64, n+1)}
	par.ForEach(n, 1024, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for _, v := range g.Neighbors(uint32(u)) {
				if rank[v] > rank[u] {
					o.off[u]++
				}
			}
		}
	})
	par.PrefixSum(o.off)
	o.adj = make([]uint32, o.off[n])
	if ids {
		o.eid = make([]int64, o.off[n])
	}
	par.ForEach(n, 1024, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			k := o.off[u]
			for i, v := range g.Neighbors(uint32(u)) {
				if rank[v] > rank[u] {
					o.adj[k] = v
					if ids {
						o.eid[k] = g.EdgeIDs(uint32(u))[i]
					}
					k++
				}
			}
		}
	})
	return o
}

func (o *oriented) out(u uint32) []uint32 { return o.adj[o.off[u]:o.off[u+1]] }

// trianglesOfRoot calls fn once for every triangle whose lowest-rank vertex
// is u, with its three oriented slots: for rank(u) < rank(v) < rank(w), u→v,
// u→w and v→w. mark stamps each w ∈ out(u) with its position; then for each
// v ∈ out(u), in order, a scan of out(v) meets every marked w in id order —
// the order out(u) ∩ out(v) lists them — and reads all three slots off the
// rows: no search, no merge of full adjacencies. mark is the caller's,
// zero over every vertex on entry and again on return.
func (o *oriented) trianglesOfRoot(u uint32, mark []int32, fn func(uv, uw, vw int64)) {
	lo := o.off[u]
	ou := o.out(u)
	if len(ou) < 2 {
		return
	}
	for j, w := range ou {
		mark[w] = int32(j) + 1
	}
	last := ou[len(ou)-1] // no w past out(u)'s largest id closes a triangle
	for i, v := range ou {
		for k := o.off[v]; k < o.off[v+1] && o.adj[k] <= last; k++ {
			if j := mark[o.adj[k]]; j != 0 {
				fn(lo+int64(i), lo+int64(j-1), k)
			}
		}
	}
	for _, w := range ou {
		mark[w] = 0
	}
}

// appendCommon appends a ∩ b, both id-sorted, to dst.
func appendCommon(dst, a, b []uint32) []uint32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

func sortedTriple(a, b, c uint32) Triangle {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return Triangle{a, b, c}
}
