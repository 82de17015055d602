// Package dynamic maintains a k-core decomposition under edge insertions
// and removals, using the subcore traversal algorithm of Sarıyüce et al.
// ("Streaming Algorithms for k-Core Decomposition", VLDB 2013) — the same
// authors' earlier work that the local-algorithms paper builds on. The key
// theorem: inserting or removing one edge changes core numbers only inside
// the affected subcore (the κ=k S-connected region around the edge, for
// k = min of the endpoint core numbers), and by at most one. The repair is
// therefore local, complementing the query-driven scenario of the local
// algorithms paper.
//
// The storage keeps the rest of a write as local as the repair (see Graph),
// and the maintained κ is exact after every edit — the property and fuzz
// tests hold it to a cold peel — which is what lets the serving layer
// publish it as the core decomposition without deriving it a second time.
// warm.go holds the Lemma 2 warm starts for what has no maintained
// counterpart (truss) and for callers who have only an old κ.
package dynamic

import (
	"slices"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// Graph is a mutable undirected simple graph with maintained core numbers.
//
// Storage is the immutable CSR the graph was last published as (Static)
// plus private sorted copies of only the rows edited since, made on a row's
// first edit. Starting from a CSR therefore copies κ and nothing else, an
// edit costs the rows of its two endpoints, a publish patches the touched
// rows into the base (graph.Patch) instead of rebuilding it, and nothing
// ever writes through a row a published graph holds.
type Graph struct {
	base *graph.Graph
	// own holds the rows edited since base, keyed by vertex; a vertex with
	// no entry reads its base row (none at or past base.N()). An emptied
	// row stays as an empty entry.
	own   map[uint32][]uint32
	kappa []int32 // len(kappa) is the vertex count
	edges int64
}

// New creates a dynamic graph with n isolated vertices (all κ = 0).
func New(n int) *Graph {
	return FromStaticCores(graph.Build(n, nil), make([]int32, n))
}

// FromStatic initializes a dynamic graph from a static one, computing core
// numbers from scratch.
func FromStatic(sg *graph.Graph) *Graph {
	return FromStaticCores(sg, peel.Run(nucleus.NewCore(sg)).Kappa)
}

// FromStaticCores initializes a dynamic graph from a static snapshot whose
// exact core numbers are already known (e.g. from a cached decomposition),
// skipping the cold peel of FromStatic. kappa is copied — the only O(n)
// step; sg is shared, never written — and must be the exact core numbers
// of sg, or later incremental repairs will drift.
func FromStaticCores(sg *graph.Graph, kappa []int32) *Graph {
	if len(kappa) != sg.N() {
		panic("dynamic: core-number length does not match the graph")
	}
	return &Graph{
		base:  sg,
		own:   make(map[uint32][]uint32),
		kappa: slices.Clone(kappa),
		edges: sg.M(),
	}
}

// Grow extends the graph to n vertices; new vertices start isolated with
// κ = 0. No-op when n <= N().
func (g *Graph) Grow(n int) {
	if n > len(g.kappa) {
		g.kappa = append(g.kappa, make([]int32, n-len(g.kappa))...)
	}
}

// N returns the vertex count.
func (g *Graph) N() int { return len(g.kappa) }

// M returns the edge count.
func (g *Graph) M() int64 { return g.edges }

// row returns the sorted neighbors of u < N() (aliased; do not modify).
func (g *Graph) row(u uint32) []uint32 {
	if r, ok := g.own[u]; ok {
		return r
	}
	if int(u) < g.base.N() {
		return g.base.Neighbors(u)
	}
	return nil
}

// Degree returns the degree of u.
func (g *Graph) Degree(u uint32) int { return len(g.row(u)) }

// HasEdge reports whether {u,v} is present. An endpoint at or past N()
// names no vertex, so no edge: false.
func (g *Graph) HasEdge(u, v uint32) bool {
	if int(u) >= g.N() || int(v) >= g.N() {
		return false
	}
	_, ok := slices.BinarySearch(g.row(u), v)
	return ok
}

// CoreNumbers returns the maintained core numbers (aliased; do not modify).
func (g *Graph) CoreNumbers() []int32 { return g.kappa }

// CoreNumber returns κ(u).
func (g *Graph) CoreNumber(u uint32) int32 { return g.kappa[u] }

// setAdj adds (present) or deletes v in u's row, copying the row out of the
// base on its first edit.
func (g *Graph) setAdj(u, v uint32, present bool) {
	r, owned := g.own[u]
	if !owned {
		base := g.row(u)
		r = append(make([]uint32, 0, len(base)+1), base...) // room for one insert
	}
	i, _ := slices.BinarySearch(r, v)
	if present {
		g.own[u] = slices.Insert(r, i, v)
	} else {
		g.own[u] = slices.Delete(r, i, i+1)
	}
}

// InsertEdge adds edge {u,v} and repairs the core numbers locally, first
// growing the graph to cover both endpoints (as graph.ApplyEdits does).
// Returns false, leaving the graph as it was, if the edge already exists or
// is a self-loop.
func (g *Graph) InsertEdge(u, v uint32) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.Grow(int(max(u, v)) + 1)
	g.setAdj(u, v, true)
	g.setAdj(v, u, true)
	g.edges++
	// A candidate joins the (k+1)-core only with more than k neighbors
	// that are above k or candidates still in; the rest fall out, cascading.
	k, cd := g.candidates(u, v)
	g.shed(cd, k+1)
	for x := range cd {
		g.kappa[x]++
	}
	return true
}

// RemoveEdge deletes edge {u,v} and repairs the core numbers locally.
// Returns false if the edge does not exist — in particular when an endpoint
// is at or past N().
func (g *Graph) RemoveEdge(u, v uint32) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.setAdj(u, v, false)
	g.setAdj(v, u, false)
	g.edges--
	// A candidate left with fewer than k neighbors inside the k-core
	// falls to k-1, cascading (never at k = 0: no count is negative).
	k, cd := g.candidates(u, v)
	for _, x := range g.shed(cd, k) {
		g.kappa[x] = k - 1
	}
	return true
}

// candidates returns k = min(κ(u), κ(v)) and the subcore of the edited edge
// {u,v}: the vertices with κ = k reachable from an endpoint through vertices
// with κ = k — the only ones whose κ the edit can change, and by one — each
// with its count of neighbors with κ >= k. A κ = k neighbor of a subcore
// vertex is in the subcore itself, so on the insert side the count is the
// candidate degree within the potential (k+1)-core.
func (g *Graph) candidates(u, v uint32) (k int32, cd map[uint32]int32) {
	k = min(g.kappa[u], g.kappa[v])
	cd = make(map[uint32]int32)
	var stack []uint32
	for _, r := range [2]uint32{u, v} {
		if g.kappa[r] == k {
			cd[r] = 0
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var c int32
		for _, w := range g.row(x) {
			if g.kappa[w] < k {
				continue
			}
			c++
			if _, seen := cd[w]; g.kappa[w] == k && !seen {
				cd[w] = 0
				stack = append(stack, w)
			}
		}
		cd[x] = c
	}
	return k, cd
}

// shed removes from the candidates, cascading, every vertex left with fewer
// than need counted neighbors — a candidate that goes takes one off each
// candidate neighbor — and returns the removed; the survivors stay in cd.
func (g *Graph) shed(cd map[uint32]int32, need int32) (gone []uint32) {
	for x, c := range cd {
		if c < need {
			gone = append(gone, x)
			delete(cd, x)
		}
	}
	for i := 0; i < len(gone); i++ {
		for _, w := range g.row(gone[i]) {
			switch c, in := cd[w]; {
			case !in:
			case c > need:
				cd[w] = c - 1
			default:
				gone = append(gone, w)
				delete(cd, w)
			}
		}
	}
	return gone
}

// Static publishes the current graph as an immutable CSR graph,
// bit-identical to graph.Build of its edge set, and rebases on it: the rows
// edited since the last call are patched into the previous base and
// released. With nothing edited it returns the graph it returned before.
func (g *Graph) Static() *graph.Graph {
	if len(g.own) > 0 || g.N() != g.base.N() {
		g.base = g.base.Patch(g.N(), g.own)
		clear(g.own)
	}
	return g.base
}
