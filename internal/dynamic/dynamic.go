// Package dynamic maintains a k-core decomposition under edge insertions
// and removals, after the subcore algorithms of Sarıyüce et al. ("Streaming
// Algorithms for k-Core Decomposition", VLDB 2013), the same authors'
// earlier work that the local-algorithms paper builds on: one edit changes
// κ by at most one, and only of κ = k vertices (k the smaller endpoint κ)
// that reach the edge through vertices that change too. The repair visits
// only vertices that can rise or fall, on a count array every edit reuses:
// local, complementing the query-driven scenario of the local algorithms.
//
// The storage keeps the rest of a write as local as the repair (see Graph),
// and the maintained κ is exact after every edit — the property and fuzz
// tests hold it to a cold peel — which is what lets the serving layer
// publish it as the core decomposition without deriving it a second time.
// warm.go holds the Lemma 2 warm starts for what has no maintained
// counterpart (truss) and for callers who have only an old κ.
package dynamic

import (
	"cmp"
	"fmt"
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

	// The repair's scratch, reused by every edit: a count per vertex the
	// edit touched (listed in touched; untouched otherwise), and the queue
	// of the vertices it sheds.
	cnt            []int32
	touched, queue []uint32

	// moved lists each rise and fall of the repair since the last publish
	// as (vertex, κ before it), oldest first; compacted to each vertex's
	// oldest entry whenever it fills, so it never outgrows twice the
	// vertices that moved.
	moved []CoreChange
}

// CoreChange is one vertex's core number: its new value in ChangedCores
// and SetCores.
type CoreChange struct {
	V     uint32
	Kappa int32
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

// AddRows adds edge {u,v} to the rows alone, first growing the graph to
// cover both endpoints, and leaves every core number as it is: the first
// half of InsertEdge, for a caller that installs the batch's κ itself
// (SetCores). Returns false, leaving the graph as it was, if the edge
// already exists or is a self-loop.
func (g *Graph) AddRows(u, v uint32) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.Grow(int(max(u, v)) + 1)
	g.setAdj(u, v, true)
	g.setAdj(v, u, true)
	g.edges++
	return true
}

// RemoveRows deletes edge {u,v} from the rows alone, the first half of
// RemoveEdge. Returns false if the edge does not exist.
func (g *Graph) RemoveRows(u, v uint32) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.setAdj(u, v, false)
	g.setAdj(v, u, false)
	g.edges--
	return true
}

// InsertEdge adds edge {u,v} and repairs the core numbers locally, first
// growing the graph to cover both endpoints (as graph.ApplyEdits does).
// Returns false, leaving the graph as it was, if the edge already exists or
// is a self-loop.
//
// Only vertices with κ = k, for k = min(κ(u), κ(v)), can rise, by one; a
// risen vertex has more than k neighbors with κ >= k and reaches the edge
// through risen vertices. So the walk starts at the κ = k endpoints, counts
// each visited vertex's neighbors with κ >= k, and goes on through a vertex
// only if that count is above k: one that cannot rise cannot pass a rise
// on. The visited then shed, cascading, every vertex left with at most k
// neighbors above k or still in; the rest rise.
func (g *Graph) InsertEdge(u, v uint32) bool {
	if !g.AddRows(u, v) {
		return false
	}
	g.scratch()
	k := min(g.kappa[u], g.kappa[v])
	for _, r := range [2]uint32{u, v} {
		if g.kappa[r] == k {
			g.touch(r, 0)
		}
	}
	for i := 0; i < len(g.touched); i++ {
		x := g.touched[i]
		if g.cnt[x] = g.countAtLeast(x, k); g.cnt[x] <= k {
			continue
		}
		for _, w := range g.row(x) {
			if g.kappa[w] == k && g.cnt[w] == untouched {
				g.touch(w, 0)
			}
		}
	}
	// Every κ = k neighbor of a vertex walked through was visited, so that
	// vertex's count is its degree within the candidate (k+1)-core.
	for _, x := range g.touched {
		if g.cnt[x] <= k {
			g.queue = append(g.queue, x)
		}
	}
	for i := 0; i < len(g.queue); i++ {
		for _, w := range g.row(g.queue[i]) {
			g.drop(w, k+1)
		}
	}
	for _, x := range g.touched {
		if g.cnt[x] > k {
			g.noteMove(x)
			g.kappa[x]++
		}
	}
	g.reset()
	return true
}

// RemoveEdge deletes edge {u,v} and repairs the core numbers locally.
// Returns false if the edge does not exist — in particular when an endpoint
// is at or past N().
//
// Only vertices with κ = k, for k = min(κ(u), κ(v)) >= 1, can fall, by one,
// and a fallen vertex reaches the edge through fallen vertices. So the
// cascade starts at the κ = k endpoints and goes on only through vertices
// that fall: a vertex is counted (neighbors with κ >= k) on first touch and
// falls once its count is below k. A fall is applied (κ := k-1) when its
// queue entry is processed; a vertex touched later counts it out, one
// counted earlier is decremented then — never both, or it would count twice.
func (g *Graph) RemoveEdge(u, v uint32) bool {
	if !g.RemoveRows(u, v) {
		return false
	}
	g.scratch()
	k := min(g.kappa[u], g.kappa[v])
	for _, r := range [2]uint32{u, v} {
		if g.kappa[r] == k {
			g.firstTouch(r, k)
		}
	}
	for i := 0; i < len(g.queue); i++ {
		x := g.queue[i]
		g.noteMove(x)
		g.kappa[x] = k - 1
		for _, w := range g.row(x) {
			if g.cnt[w] == untouched && g.kappa[w] == k {
				g.firstTouch(w, k) // counts x out: it has fallen
			} else {
				g.drop(w, k)
			}
		}
	}
	g.reset()
	return true
}

// untouched is the count of a vertex the current edit has not touched.
const untouched = -1

// scratch grows the count array to cover every vertex, untouched: on the
// first edit, so an overlay never edited never pays for it.
func (g *Graph) scratch() {
	if n := len(g.kappa) - len(g.cnt); n > 0 {
		g.cnt = append(g.cnt, slices.Repeat([]int32{untouched}, n)...)
	}
}

// touch records x's count c and lists x for the reset.
func (g *Graph) touch(x uint32, c int32) {
	g.cnt[x] = c
	g.touched = append(g.touched, x)
}

// firstTouch counts x and queues its fall if the count is below k.
func (g *Graph) firstTouch(x uint32, k int32) {
	g.touch(x, g.countAtLeast(x, k))
	if g.cnt[x] < k {
		g.queue = append(g.queue, x)
	}
}

// countAtLeast returns the number of x's neighbors with κ >= k.
func (g *Graph) countAtLeast(x uint32, k int32) (c int32) {
	for _, w := range g.row(x) {
		if g.kappa[w] >= k {
			c++
		}
	}
	return c
}

// drop takes one off w's count if it is at least need (one below need has
// gone, or was never counted), queueing w when that takes it below need.
func (g *Graph) drop(w uint32, need int32) {
	if c := g.cnt[w]; c >= need {
		g.cnt[w] = c - 1
		if c == need {
			g.queue = append(g.queue, w)
		}
	}
}

// reset returns every touched count to untouched and empties both lists.
func (g *Graph) reset() {
	for _, x := range g.touched {
		g.cnt[x] = untouched
	}
	g.touched, g.queue = g.touched[:0], g.queue[:0]
}

// noteMove records x's core number before the repair moves it.
func (g *Graph) noteMove(x uint32) {
	if len(g.moved) == cap(g.moved) {
		g.moved = oldestPerVertex(g.moved)
	}
	g.moved = append(g.moved, CoreChange{x, g.kappa[x]})
}

// oldestPerVertex sorts moves by vertex and keeps each vertex's oldest,
// in place.
func oldestPerVertex(moves []CoreChange) []CoreChange {
	slices.SortStableFunc(moves, func(a, b CoreChange) int { return cmp.Compare(a.V, b.V) })
	return slices.CompactFunc(moves, func(a, b CoreChange) bool { return a.V == b.V })
}

// ChangedCores returns, by ascending vertex, every vertex whose core number
// the repair (InsertEdge, RemoveEdge) has moved since the graph was created
// or last published (Static), with its value now: what a replica needs
// beside the batch's rows to reach this κ without repairing. A vertex that
// moved and came back is left out; one that grew in is listed only if it
// left κ = 0. It reads only what moved, never all of κ.
func (g *Graph) ChangedCores() []CoreChange {
	g.moved = oldestPerVertex(g.moved)
	var out []CoreChange
	for _, m := range g.moved {
		if k := g.kappa[m.V]; k != m.Kappa {
			out = append(out, CoreChange{m.V, k})
		}
	}
	return out
}

// SetCores installs a batch's changed core numbers (ChangedCores of the
// graph that repaired it) after its rows were edited by AddRows and
// RemoveRows. It refuses, changing nothing, a list naming a vertex at or
// past N(), a negative κ or a κ above the vertex's degree: no core number
// of this graph can be that, so the list was not made for it.
func (g *Graph) SetCores(cores []CoreChange) error {
	for _, c := range cores {
		switch {
		case int(c.V) >= g.N():
			return fmt.Errorf("core number of vertex %d, past the vertex count %d", c.V, g.N())
		case c.Kappa < 0:
			return fmt.Errorf("negative core number %d of vertex %d", c.Kappa, c.V)
		case int(c.Kappa) > g.Degree(c.V):
			return fmt.Errorf("core number %d of vertex %d, above its degree %d", c.Kappa, c.V, g.Degree(c.V))
		}
	}
	for _, c := range cores {
		g.kappa[c.V] = c.Kappa
	}
	return nil
}

// Static publishes the current graph as an immutable CSR graph,
// bit-identical to graph.Build of its edge set, and rebases on it: the rows
// edited since the last call are patched into the previous base and
// released, and ChangedCores starts over. With nothing edited it returns
// the graph it returned before.
func (g *Graph) Static() *graph.Graph {
	g.moved = g.moved[:0]
	if len(g.own) > 0 || g.N() != g.base.N() {
		g.base = g.base.Patch(g.N(), g.own)
		clear(g.own)
	}
	return g.base
}
