// Package cliques provides triangle and k-clique counting, enumeration and
// indexing on top of the graph package. These are the substrate for the
// (2,3) (k-truss) and (3,4) nucleus decompositions: edges are the cells of
// the former with triangles as their s-cliques, and triangles are the cells
// of the latter with 4-cliques as their s-cliques.
package cliques

import (
	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// Triangle is a vertex triple sorted ascending.
type Triangle [3]uint32

// CountPerEdge returns the number of triangles containing each edge,
// indexed by dense edge id. It intersects sorted adjacency lists along the
// lower-degree endpoint of each edge.
func CountPerEdge(g *graph.Graph) []int32 {
	counts := make([]int32, g.M())
	n := g.N()
	for u := 0; u < n; u++ {
		uu := uint32(u)
		ns := g.Neighbors(uu)
		eids := g.EdgeIDs(uu)
		for i, v := range ns {
			if v <= uu {
				continue
			}
			e := eids[i]
			// Count common neighbors w with w > v to count each triangle
			// once per edge... each triangle {u,v,w} must increment all
			// three of its edges, so instead count all common neighbors and
			// rely on visiting each edge exactly once from its lower
			// endpoint: common(u,v) counts triangles through edge {u,v}
			// regardless of w's position.
			counts[e] = int32(intersectCount(ns, g.Neighbors(v)))
		}
	}
	return counts
}

// CountPerEdgeParallel is CountPerEdge with the per-vertex rows split
// across the given number of workers. This is the parallelizable degree
// initialization of the "partially parallel peeling" baseline (Figure 1b's
// Peeling-24t): counting is embarrassingly parallel even though the
// peeling loop itself is not.
func CountPerEdgeParallel(g *graph.Graph, threads int) []int32 {
	if threads <= 1 {
		return CountPerEdge(g)
	}
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

// Count returns the total number of triangles using a degeneracy-oriented
// enumeration (each triangle counted exactly once).
func Count(g *graph.Graph) int64 {
	var total int64
	ForEach(g, func(Triangle) bool {
		total++
		return true
	})
	return total
}

// ForEach enumerates every triangle exactly once, sorted ascending within
// the triple, using the degree orientation (edges point from lower to
// higher (degree, id) rank). Iteration stops early if fn returns false.
func ForEach(g *graph.Graph, fn func(Triangle) bool) {
	rank := g.DegreeOrder()
	n := g.N()
	// out[u] = oriented out-neighbors of u, sorted by vertex id.
	out := orientedAdjacency(g, rank, 1)
	for u := 0; u < n; u++ {
		if !trianglesOfRoot(out, u, fn) {
			return
		}
	}
}

// Triangles returns every triangle exactly once, in the exact order ForEach
// emits them, with the enumeration fanned out across threads by root
// vertex. The chunk-ordered gather keeps the list bit-identical to the
// sequential enumeration at every thread count, which is what makes the
// triangle ids handed out by BuildTriangleIndexThreads deterministic.
func Triangles(g *graph.Graph, threads int) []Triangle {
	rank := g.DegreeOrder()
	out := orientedAdjacency(g, rank, threads)
	return par.Collect(g.N(), 64, threads, func(u int, buf []Triangle) []Triangle {
		trianglesOfRoot(out, u, func(t Triangle) bool {
			buf = append(buf, t)
			return true
		})
		return buf
	})
}

// trianglesOfRoot emits the triangles whose lowest-rank vertex is u:
// intersect out(u) with out(v) for each v in out(u) — every common w closes
// a triangle {u,v,w} with rank(u) < rank(v) < rank(w), so each triangle is
// emitted exactly once across roots. Returns false if fn stopped.
func trianglesOfRoot(out [][]uint32, u int, fn func(Triangle) bool) bool {
	ou := out[u]
	for _, v := range ou {
		ov := out[v]
		x, y := 0, 0
		for x < len(ou) && y < len(ov) {
			switch {
			case ou[x] < ov[y]:
				x++
			case ou[x] > ov[y]:
				y++
			default:
				if !fn(sortedTriple(uint32(u), v, ou[x])) {
					return false
				}
				x++
				y++
			}
		}
	}
	return true
}

// orientedAdjacency returns, for each vertex, its neighbors of higher rank,
// sorted by vertex id. Rows are independent, so both the sizing and fill
// passes shard across threads.
func orientedAdjacency(g *graph.Graph, rank []int32, threads int) [][]uint32 {
	n := g.N()
	out := make([][]uint32, n)
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			size := 0
			for _, v := range g.Neighbors(uint32(u)) {
				if rank[v] > rank[u] {
					size++
				}
			}
			row := make([]uint32, 0, size)
			for _, v := range g.Neighbors(uint32(u)) {
				if rank[v] > rank[u] {
					row = append(row, v)
				}
			}
			// Neighbors are id-sorted already, and we preserved order.
			out[u] = row
		}
	})
	return out
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
