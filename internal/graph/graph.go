// Package graph provides a compact undirected simple-graph representation
// (CSR: compressed sparse rows) together with loaders, generators and the
// ordering utilities required by the nucleus decomposition algorithms.
//
// Vertices are dense integers in [0, N). Neighbor lists are sorted in
// increasing order, contain no duplicates and no self-loops. Each undirected
// edge {u,v} additionally has a dense edge id in [0, M), the cell id of the
// (2,3) (k-truss) decomposition. Ids are assigned on first use, in the order
// edges appear in the CSR rows of their lower endpoint (u < v): a graph only
// ever read through its rows (k-core, the core hierarchy, a core-only
// publish) never numbers its edges.
package graph

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"nucleus/internal/par"
)

// Graph is an immutable undirected simple graph in CSR form. It is safe for
// concurrent use — the first call that reads an edge id numbers the edges
// exactly once, and every caller sees the finished tables — and, holding a
// sync.Once and the sync.Map of its Memo, must not be copied by value.
type Graph struct {
	// offs has length N+1; the neighbors of u are adj[offs[u]:offs[u+1]].
	offs []int64
	// adj holds concatenated sorted neighbor lists.
	adj []uint32

	// The three tables below are written once by numberEdges, behind
	// numbered, and read only through ids().
	numbered sync.Once
	// eid[i] is the dense edge id of the undirected edge {u, adj[i]} where u
	// owns position i. Both directions of an edge carry the same id.
	eid []int64
	// edge endpoint tables, indexed by edge id; edgeU[e] < edgeV[e].
	edgeU []uint32
	edgeV []uint32

	// memo maps a Memo key to its *flight.
	memo sync.Map
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offs) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int64 { return int64(len(g.adj) / 2) }

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u uint32) int {
	return int(g.offs[u+1] - g.offs[u])
}

// Neighbors returns the sorted neighbor slice of u. The slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u uint32) []uint32 {
	return g.adj[g.offs[u]:g.offs[u+1]]
}

// ids returns g with its edges numbered, numbering them on the first call.
func (g *Graph) ids() *Graph {
	g.numbered.Do(g.numberEdges)
	return g
}

// EdgeIDs returns, for vertex u, the edge-id slice parallel to Neighbors(u).
func (g *Graph) EdgeIDs(u uint32) []int64 {
	return g.ids().eid[g.offs[u]:g.offs[u+1]]
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

// find returns the position in adj of v in the shorter of the two rows of
// {u,v}, or -1 if {u,v} is not an edge. It reads no edge id.
func (g *Graph) find(u, v uint32) int64 {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	if i, ok := slices.BinarySearch(g.Neighbors(u), v); ok {
		return g.offs[u] + int64(i)
	}
	return -1
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v uint32) bool { return g.find(u, v) >= 0 }

// EdgeID returns the dense id of edge {u,v} if present.
func (g *Graph) EdgeID(u, v uint32) (int64, bool) {
	if i := g.find(u, v); i >= 0 {
		return g.ids().eid[i], true
	}
	return 0, false
}

// Edge returns the endpoints (u < v) of the edge with dense id e.
// It is O(1) using the edge endpoint tables.
func (g *Graph) Edge(e int64) (u, v uint32) {
	g.ids()
	return g.edgeU[e], g.edgeV[e]
}

// Build constructs a Graph from an edge list. Self-loops are dropped and
// duplicate edges collapsed. n must be at least max(endpoint)+1 — an edge
// with an endpoint at or past n panics on the calling goroutine, naming the
// edge — or pass n = -1 to infer it from the edges. Build is BuildThreads
// with a single thread.
func Build(n int, edges [][2]uint32) *Graph {
	return BuildThreads(n, edges, 1)
}

// BuildThreads is Build with up to threads workers. The result is a pure
// function of the edge set, bit-identical to Build at every thread count,
// and nothing in it sorts or searches: a parallel count and scatter lay
// both directions of every edge into rows of arbitrary order, and one
// transposition sorts them — walking the scattered rows v = 0…n−1 and
// appending v to row u of the output for each u in row v leaves every
// output row ascending, with a duplicate always equal to the row's last
// entry, where it is dropped on the spot.
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
	// but contribute no degree. A worker that meets an endpoint outside a
	// given n stops and leaves the edge's index for the caller to report.
	counts := make([][]int64, threads)
	maxVs := make([]uint32, threads)
	outOfRange := make([]int, threads)
	workers := par.Ranges(ne, threads, func(w, lo, hi int) {
		var c []int64
		if n >= 0 {
			c = make([]int64, n)
		}
		var maxV uint32
		outOfRange[w] = -1
		for i, e := range edges[lo:hi] {
			u, v := e[0], e[1]
			maxV = max(maxV, u, v)
			if u == v {
				continue
			}
			if int(max(u, v)) >= len(c) {
				if n >= 0 {
					outOfRange[w] = lo + i
					break
				}
				nc := make([]int64, max(int(maxV)+1, 2*len(c)))
				copy(nc, c)
				c = nc
			}
			c[u]++
			c[v]++
		}
		counts[w], maxVs[w] = c, maxV
	})
	counts = counts[:workers]
	for _, i := range outOfRange[:workers] {
		if i >= 0 {
			panic(fmt.Sprintf("graph: edge {%d,%d} out of range (n=%d)", edges[i][0], edges[i][1], n))
		}
	}
	if n < 0 {
		n = 0
		if ne > 0 {
			n = int(slices.Max(maxVs[:workers])) + 1
		}
	}
	for w, c := range counts {
		if len(c) < n {
			c = append(c, make([]int64, n-len(c))...)
		}
		counts[w] = c[:n]
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
	scat := make([]uint32, offs[n])
	par.Ranges(ne, threads, func(w, lo, hi int) {
		c := counts[w]
		for _, e := range edges[lo:hi] {
			u, v := e[0], e[1]
			if u == v {
				continue
			}
			scat[c[u]] = v
			c[u]++
			scat[c[v]] = u
			c[v]++
		}
	})

	// Transpose. The scattered multigraph is symmetric, so row u of the
	// output has room for exactly the entries row u of the scatter holds;
	// end[u] is its next free slot.
	adj := make([]uint32, len(scat))
	end := slices.Clone(offs[:n])
	kept := 0
	for v := range end {
		for _, u := range scat[offs[v]:offs[v+1]] {
			if e := end[u]; e == offs[u] || adj[e-1] != uint32(v) {
				adj[e] = uint32(v)
				end[u] = e + 1
				kept++
			}
		}
	}
	if kept == len(adj) {
		return &Graph{offs: offs, adj: adj}
	}
	// Duplicates were dropped: close the gaps they left.
	dense := make([]int64, n+1)
	for u, e := range end {
		dense[u+1] = dense[u] + e - offs[u]
	}
	packed := make([]uint32, dense[n])
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			copy(packed[dense[u]:dense[u+1]], adj[offs[u]:])
		}
	})
	return &Graph{offs: dense, adj: packed}
}

// numberEdges assigns the dense edge ids, in the order edges appear in the
// rows of their lower endpoint, with no search: rows are walked in order,
// an upper entry (u, v>u) takes the next id and mirrors it into the next
// unfilled slot of row v. Row v's lower neighbors are sorted, so that slot
// is u's, and when the walk reaches a row its cursor has already passed
// every lower entry.
func (g *Graph) numberEdges() {
	offs, adj := g.offs, g.adj
	eid := make([]int64, len(adj))
	edgeU, edgeV := make([]uint32, g.M()), make([]uint32, g.M())
	cursor := slices.Clone(offs[:g.N()])
	var id int64
	for u := range cursor {
		for i := cursor[u]; i < offs[u+1]; i++ {
			v := adj[i]
			eid[i], edgeU[id], edgeV[id] = id, uint32(u), v
			eid[cursor[v]] = id
			cursor[v]++
			id++
		}
	}
	g.eid, g.edgeU, g.edgeV = eid, edgeU, edgeV
}

// Edges returns the edge list with u < v, indexed by edge id.
func (g *Graph) Edges() [][2]uint32 {
	g.ids()
	out := make([][2]uint32, len(g.edgeU))
	for e := range out {
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
