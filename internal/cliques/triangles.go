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
// indexed by dense edge id: |N(u) ∩ N(v)| for every edge {u,v}, visited
// once from its lower endpoint. It is CountPerEdgeParallel with a single
// thread.
func CountPerEdge(g *graph.Graph) []int32 { return CountPerEdgeParallel(g, 1) }

// CountPerEdgeParallel is CountPerEdge with the per-vertex rows split
// across the given number of workers. This is the parallelizable degree
// initialization of the "partially parallel peeling" baseline (Figure 1b's
// Peeling-24t): counting is embarrassingly parallel even though the
// peeling loop itself is not.
func CountPerEdgeParallel(g *graph.Graph, threads int) []int32 {
	counts := make([]int32, g.M())
	par.Ranges(g.N(), threads, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			ns := g.Neighbors(uu)
			eids := g.EdgeIDs(uu)
			for i, v := range ns {
				if v <= uu {
					continue
				}
				// Each edge is owned by its lower endpoint, so writes to
				// counts are disjoint across workers.
				counts[eids[i]] = int32(intersectCount(ns, g.Neighbors(v)))
			}
		}
	})
	return counts
}

// intersectCount returns |a ∩ b| for sorted slices.
func intersectCount(a, b []uint32) int {
	i, j, c := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// ForEachTriangleOfEdge calls fn for every triangle containing edge e =
// {u,v}, passing the apex vertex w and the dense ids of the two other edges
// {u,w} and {v,w}. Iteration stops early if fn returns false.
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

// Count returns the total number of triangles.
func Count(g *graph.Graph) int64 { return int64(BuildTriangleIndex(g).Len()) }

// ForEach calls fn for every triangle exactly once, sorted ascending within
// the triple, in triangle-id order (TriangleIndex). Iteration stops early if
// fn returns false.
func ForEach(g *graph.Graph, fn func(Triangle) bool) {
	for _, t := range BuildTriangleIndex(g).List {
		if !fn(t) {
			return
		}
	}
}

// oriented is a graph's CSR oriented by a vertex rank — (degree, id) for
// triangles and 4-cliques, degeneracy for k-cliques: out(u) =
// adj[off[u]:off[u+1]] holds u's higher-ranked neighbours in id order, and
// slot k is oriented edge k = (u→adj[k]).
type oriented struct {
	rank []int32
	off  []int64
	adj  []uint32
}

// orient builds it: parallel count, prefix sum, parallel fill.
func orient(g *graph.Graph, rank []int32, threads int) oriented {
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
	par.ForEach(n, 1024, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			k := o.off[u]
			for _, v := range g.Neighbors(uint32(u)) {
				if rank[v] > rank[u] {
					o.adj[k] = v
					k++
				}
			}
		}
	})
	return o
}

func (o *oriented) out(u uint32) []uint32 { return o.adj[o.off[u]:o.off[u+1]] }

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
