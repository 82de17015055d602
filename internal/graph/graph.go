// Package graph provides a compact undirected simple-graph representation
// (CSR: compressed sparse rows) together with loaders, generators and the
// ordering utilities required by the nucleus decomposition algorithms.
//
// Vertices are dense integers in [0, N). Neighbor lists are sorted in
// increasing order, contain no duplicates and no self-loops. Each undirected
// edge {u,v} additionally has a dense edge id in [0, M) assigned in the order
// edges appear in the CSR rows of their lower endpoint (u < v); edge ids are
// the cell ids of the (2,3) (k-truss) decomposition.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"nucleus/internal/par"
)

// Graph is an immutable undirected simple graph in CSR form.
type Graph struct {
	// offs has length N+1; the neighbors of u are adj[offs[u]:offs[u+1]].
	offs []int64
	// adj holds concatenated sorted neighbor lists.
	adj []uint32
	// eid[i] is the dense edge id of the undirected edge {u, adj[i]} where u
	// owns position i. Both directions of an edge carry the same id.
	eid []int64
	// m is the number of undirected edges.
	m int64
	// edge endpoint tables, indexed by edge id; edgeU[e] < edgeV[e].
	edgeU []uint32
	edgeV []uint32
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offs) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return g.m }

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u uint32) int {
	return int(g.offs[u+1] - g.offs[u])
}

// Neighbors returns the sorted neighbor slice of u. The slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u uint32) []uint32 {
	return g.adj[g.offs[u]:g.offs[u+1]]
}

// EdgeIDs returns, for vertex u, the edge-id slice parallel to Neighbors(u).
func (g *Graph) EdgeIDs(u uint32) []int64 {
	return g.eid[g.offs[u]:g.offs[u+1]]
}

// CSR returns the graph's own row offsets and neighbor array, the latter
// viewed as []int32: the form in which the nucleus instances hand a stored
// s-clique incidence to the sweep kernels, so the (1,2) instance serves the
// adjacency itself instead of a converted copy. This is the one place the
// module reinterprets memory. uint32 and int32 have the same size and
// alignment, and the view reads the very ids Neighbors does as long as
// every vertex id is below 2³¹ — which each int32(v) cell-id conversion in
// the module already assumes. Both slices alias the graph's storage and
// must not be modified.
func (g *Graph) CSR() (offs []int64, adj []int32) {
	return g.offs, unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(g.adj))), len(g.adj))
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v uint32) bool {
	_, ok := g.EdgeID(u, v)
	return ok
}

// EdgeID returns the dense id of edge {u,v} if present.
func (g *Graph) EdgeID(u, v uint32) (int64, bool) {
	if u == v {
		return 0, false
	}
	// Search the smaller adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i < len(ns) && ns[i] == v {
		return g.eid[g.offs[u]+int64(i)], true
	}
	return 0, false
}

// Edge returns the endpoints (u < v) of the edge with dense id e.
// It is O(1) using the edge endpoint table built at construction.
func (g *Graph) Edge(e int64) (u, v uint32) {
	return g.edgeU[e], g.edgeV[e]
}

// Build constructs a Graph from an edge list. Self-loops are dropped and
// duplicate edges collapsed. n must be at least max(endpoint)+1; pass n = -1
// to infer it from the edges. Build is BuildThreads with a single thread.
func Build(n int, edges [][2]uint32) *Graph {
	return BuildThreads(n, edges, 1)
}

// BuildThreads is Build with up to threads workers. The result is
// bit-identical to Build at every thread count: the CSR scatter assigns
// every entry the slot a sequential stable counting sort would (contiguous
// per-worker edge ranges merged vertex-major, worker-minor), rows are then
// normalized by sort/dedup, and edge ids are numbered by a per-row prefix
// sum that reproduces the sequential row walk.
//
// When n == -1 the max-endpoint inference rides along in the degree pass
// (per-worker growable count arrays plus a per-worker running max), so the
// edge list is scanned exactly twice — count, scatter — not three times.
func BuildThreads(n int, edges [][2]uint32, threads int) *Graph {
	ne := len(edges)
	if threads < 1 {
		threads = 1
	}
	if threads > ne && ne > 0 {
		threads = ne
	}

	// Pass 1: per-worker degree counts over contiguous edge ranges. Self-loop
	// endpoints still raise the inferred max (Build(-1, [(7,7)]) has n = 8)
	// but contribute no degree.
	counts := make([][]int64, threads)
	maxVs := make([]uint32, threads)
	workers := par.Ranges(ne, threads, func(w, lo, hi int) {
		var c []int64
		if n >= 0 {
			c = make([]int64, n)
		}
		var maxV uint32
		for _, e := range edges[lo:hi] {
			u, v := e[0], e[1]
			if u > maxV {
				maxV = u
			}
			if v > maxV {
				maxV = v
			}
			if u == v {
				continue
			}
			if n < 0 && int(maxV) >= len(c) {
				want := int(maxV) + 1
				if grow := 2 * len(c); grow > want {
					want = grow
				}
				nc := make([]int64, want)
				copy(nc, c)
				c = nc
			}
			c[u]++
			c[v]++
		}
		counts[w], maxVs[w] = c, maxV
	})
	counts = counts[:workers]
	if n < 0 {
		n = 0
		if ne > 0 {
			m := maxVs[0]
			for _, v := range maxVs[1:workers] {
				if v > m {
					m = v
				}
			}
			n = int(m) + 1
		}
	}
	for w, c := range counts {
		if len(c) < n {
			nc := make([]int64, n)
			copy(nc, c)
			counts[w] = nc
		} else {
			counts[w] = c[:n]
		}
	}

	// Vertex-major, worker-minor merge: offs becomes the CSR offset array and
	// each counts[w][u] the first slot for worker w's entries of row u.
	offs := make([]int64, n+1)
	tot := offs[1:]
	par.ForEach(n, 4096, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			var t int64
			for _, c := range counts {
				t += c[u]
			}
			tot[u] = t
		}
	})
	for u := 1; u <= n; u++ {
		offs[u] += offs[u-1]
	}
	par.ForEach(n, 4096, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			cur := offs[u]
			for _, c := range counts {
				k := c[u]
				c[u] = cur
				cur += k
			}
		}
	})

	// Pass 2: scatter both directions. Ranges re-derives the identical
	// per-worker split, so each worker's cursors cover exactly its entries.
	adj := make([]uint32, offs[n])
	par.Ranges(ne, threads, func(w, lo, hi int) {
		c := counts[w]
		for _, e := range edges[lo:hi] {
			u, v := e[0], e[1]
			if u == v {
				continue
			}
			adj[c[u]] = v
			c[u]++
			adj[c[v]] = u
			c[v]++
		}
	})

	// Sort and dedup every row independently, then compact via prefix sum.
	rowLen := make([]int64, n+1)
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := adj[offs[u]:offs[u+1]]
			slices.Sort(row)
			k := 0
			for _, v := range row {
				if k > 0 && v == row[k-1] {
					continue
				}
				row[k] = v
				k++
			}
			rowLen[u] = int64(k)
		}
	})
	par.PrefixSum(rowLen) // rowLen is now the compacted offset array
	newAdj := make([]uint32, rowLen[n])
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			copy(newAdj[rowLen[u]:rowLen[u+1]], adj[offs[u]:])
		}
	})

	g := &Graph{offs: rowLen, adj: newAdj}
	g.assignEdgeIDs(threads)
	return g
}

// assignEdgeIDs numbers each edge {u,v} (u<v) at its first appearance in a
// row walk in vertex order, mirroring the id onto the (v,u) direction. The
// sequential walk parallelizes exactly: per-row upper-neighbor counts merge
// into per-row id bases by prefix sum, so every id is independent of the
// thread count.
func (g *Graph) assignEdgeIDs(threads int) {
	n := g.N()
	g.eid = make([]int64, len(g.adj))
	base := make([]int64, n+1)
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			var cnt int64
			ns := g.Neighbors(uu)
			for i := len(ns) - 1; i >= 0 && ns[i] > uu; i-- {
				cnt++
			}
			base[u] = cnt
		}
	})
	g.m = par.PrefixSum(base)
	g.edgeU = make([]uint32, g.m)
	g.edgeV = make([]uint32, g.m)
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			next := base[u]
			off := g.offs[u]
			for i, v := range g.Neighbors(uu) {
				if v > uu {
					g.eid[off+int64(i)] = next
					g.edgeU[next] = uu
					g.edgeV[next] = v
					next++
				}
			}
		}
	})
	// Mirror ids onto the lower-triangle direction. Every upper id is
	// assigned before the barrier above returns, so the lookups only read.
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			off := g.offs[u]
			for i, v := range g.Neighbors(uu) {
				if v >= uu {
					break // rows are sorted: lower neighbors form a prefix
				}
				id, ok := g.lookupAssigned(v, uu)
				if !ok {
					panic("graph: missing mirrored edge")
				}
				g.eid[off+int64(i)] = id
			}
		}
	})
}

func (g *Graph) lookupAssigned(u, v uint32) (int64, bool) {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i < len(ns) && ns[i] == v {
		return g.eid[g.offs[u]+int64(i)], true
	}
	return 0, false
}

// Edges returns the edge list with u < v, indexed by edge id.
func (g *Graph) Edges() [][2]uint32 {
	out := make([][2]uint32, g.m)
	for e := int64(0); e < g.m; e++ {
		out[e] = [2]uint32{g.edgeU[e], g.edgeV[e]}
	}
	return out
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	md := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(uint32(u)); d > md {
			md = d
		}
	}
	return md
}

// Degrees returns the degree of every vertex.
func (g *Graph) Degrees() []int32 {
	out := make([]int32, g.N())
	for u := range out {
		out[u] = int32(g.Degree(uint32(u)))
	}
	return out
}

// String implements fmt.Stringer with a short summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}
