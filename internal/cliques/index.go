package cliques

import (
	"fmt"
	"math"
	"slices"

	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// TriangleIndex assigns dense ids to every triangle of a graph and supports
// id lookup by vertex triple. It is the cell index for the (3,4) nucleus
// decomposition.
//
// Ids are positions, not hash keys: over the degree-oriented CSR, oriented
// edge k = (u→v) owns the triangle row apex[tOff[k]:tOff[k+1]] = out(u) ∩
// out(v), in id order, and triangle {u, v, w} with apex[i] = w's position
// in out(v) has id i, the order ForEach emits them in. Out-degrees are at
// most √(2m), so positions fit 16 bits when m <= MaxInt32.
type TriangleIndex struct {
	oriented
	tOff []int32
	apex []uint16
	// slot[t] is triangle t's k, owner[k] its u: set by WithSlots only.
	slot  []int32
	owner []uint32
}

// indexKey keys a graph's triangle index in its memo.
type indexKey struct{}

// TriangleIndexOf returns g's one triangle index, memoized on g: the one
// its stored truss build left (EdgeIncidenceWithin), or else built here.
func TriangleIndexOf(g *graph.Graph, threads int) *TriangleIndex {
	ti, _ := graph.Memo(g, indexKey{}, func() *TriangleIndex { return BuildTriangleIndexThreads(g, threads) })
	return ti
}

// BuildTriangleIndexThreads enumerates all triangles and indexes them,
// fanned out across threads by root vertex (trianglesOfRoot); rows are
// gathered in root order, so ids are bit-identical at every thread count.
// It reads no memo. Panics if the graph has more than MaxInt32 edges or
// int32 cell ids cannot number its triangles.
func BuildTriangleIndexThreads(g *graph.Graph, threads int) *TriangleIndex {
	if g.M() > math.MaxInt32 {
		panic("cliques: graph too large for 16-bit apex positions")
	}
	ti := &TriangleIndex{oriented: orient(g, g.DegreeOrder(), false, threads)}
	ti.tOff = make([]int32, len(ti.adj)+1)
	marks := make([][]int32, max(threads, 1))
	ti.apex = par.Collect(g.N(), 64, threads, func(w, u int, buf []uint16) []uint16 {
		ti.trianglesOfRoot(uint32(u), scratch(marks, w, g.N()), func(uv, _, vw int64) {
			buf = append(buf, uint16(vw-ti.off[ti.adj[uv]]))
			ti.tOff[uv+1]++
		})
		return buf
	})
	ti.finish()
	return ti
}

// TriangleIndexBytes is the memory a TriangleIndex over n vertices, m
// edges and t triangles holds: per vertex its rank and offset, per
// oriented slot its neighbor and row offset, per triangle its apex.
func TriangleIndexBytes(n int, m, t int64) int64 {
	return 12*int64(n) + 8 + 8*m + 4 + 2*t
}

// finish turns row counts tOff[k+1] into offsets. Ids are int32, so more
// than MaxInt32 triangles panic instead of wrapping.
func (ti *TriangleIndex) finish() {
	var total int64
	for k := 1; k < len(ti.tOff); k++ {
		total += int64(ti.tOff[k])
		ti.tOff[k] = int32(total)
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("cliques: %d triangles exceed int32 cell ids", total))
	}
}

// WithSlots returns a copy of ti whose Triangle is O(1), 4 bytes per slot
// and triangle, for the on-the-fly (3,4) rows: one lookup per row found.
func (ti *TriangleIndex) WithSlots(threads int) *TriangleIndex {
	c := *ti
	c.slot, c.owner = make([]int32, ti.Len()), make([]uint32, len(ti.adj))
	par.ForEach(len(ti.rank), 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for k := ti.off[u]; k < ti.off[u+1]; k++ {
				c.owner[k] = uint32(u)
				for t := ti.tOff[k]; t < ti.tOff[k+1]; t++ {
					c.slot[t] = int32(k)
				}
			}
		}
	})
	return &c
}

// Len returns the number of triangles.
func (ti *TriangleIndex) Len() int { return len(ti.apex) }

// Triangle returns triangle t's vertices, sorted ascending: u and v of the
// slot k = (u→v) with tOff[k] <= t < tOff[k+1] (searched for without
// WithSlots), and t's apex.
func (ti *TriangleIndex) Triangle(t int32) Triangle {
	if ti.slot != nil {
		k := int64(ti.slot[t])
		return sortedTriple(ti.owner[k], ti.adj[k], ti.apexOf(k, t))
	}
	k, _ := slices.BinarySearch(ti.tOff, t+1)
	u, _ := slices.BinarySearch(ti.off, int64(k))
	return sortedTriple(uint32(u-1), ti.adj[k-1], ti.apexOf(int64(k-1), t))
}

// apexOf returns the apex vertex of triangle t, on the row of slot k.
func (ti *TriangleIndex) apexOf(k int64, t int32) uint32 {
	return ti.adj[ti.off[ti.adj[k]]+int64(ti.apex[t])]
}

// ID returns the dense id of the triangle on vertices {a,b,c}, in any
// order: ranked u < v < w, w found in the row of u→v, by binary search in
// out(u) and in the row, whose positions index out(v). False for a vertex
// out of range, a repeated vertex (no row holds its own endpoint) or a
// non-triangle.
func (ti *TriangleIndex) ID(a, b, c uint32) (int32, bool) {
	if n := uint32(len(ti.rank)); a >= n || b >= n || c >= n {
		return 0, false
	}
	r := ti.rank
	if r[a] > r[b] {
		a, b = b, a
	}
	if r[b] > r[c] {
		b, c = c, b
	}
	if r[a] > r[b] {
		a, b = b, a
	}
	if i, ok := slices.BinarySearch(ti.out(a), b); ok {
		lo, row := ti.row(ti.off[a] + int64(i))
		ob, j, k := ti.out(b), 0, len(row)
		for j < k {
			if h := int(uint(j+k) >> 1); ob[row[h]] < c {
				j = h + 1
			} else {
				k = h
			}
		}
		if j < len(row) && ob[row[j]] == c {
			return lo + int32(j), true
		}
	}
	return 0, false
}

// row returns oriented edge k's first triangle id and its apex positions.
func (ti *TriangleIndex) row(k int64) (int32, []uint16) {
	return ti.tOff[k], ti.apex[ti.tOff[k]:ti.tOff[k+1]]
}

// ForEachK4OfTriangle calls fn for every 4-clique containing triangle t,
// passing the apex vertex x and the ids of the three other triangles of the
// 4-clique: {u,v,x}, {u,w,x}, {v,w,x}. Iteration stops if fn returns false.
// This is the on-the-fly discovery; the builds use k4OfRoot instead.
func (ti *TriangleIndex) ForEachK4OfTriangle(g *graph.Graph, t int32, fn func(x uint32, t1, t2, t3 int32) bool) {
	tri := ti.Triangle(t)
	u, v, w := tri[0], tri[1], tri[2]
	commonNeighbors3(g, u, v, w, func(x uint32) bool {
		t1, ok1 := ti.ID(u, v, x)
		t2, ok2 := ti.ID(u, w, x)
		t3, ok3 := ti.ID(v, w, x)
		if !ok1 || !ok2 || !ok3 {
			// Cannot happen on a consistent index: x adjacent to all of
			// u,v,w implies the three triangles exist.
			panic("cliques: inconsistent triangle index")
		}
		return fn(x, t1, t2, t3)
	})
}

// k4OfRoot calls fn once for every 4-clique whose lowest-rank vertex is u,
// with the ids of its four triangles: for rank(u) < rank(v) < rank(w) <
// rank(x), {u,v,w}, {u,v,x}, {u,w,x} and {v,w,x}. For v ∈ out(u), the row
// W of u→v holds every w and x as positions in out(v); for each w ∈ W a
// cursor advances to w's slot in out(u), and a merge of the rows of u→w
// and v→w — positions in out(w), intersecting inside W — yields every x,
// with the four ids read off the merge positions: no search, no map, no
// full-adjacency intersection.
func (ti *TriangleIndex) k4OfRoot(u uint32, fn func(tuvw, tuvx, tuwx, tvwx int32)) {
	ou := ti.out(u)
	for i, v := range ou {
		base, row := ti.row(ti.off[u] + int64(i))
		ov := ti.out(v)
		cu := 0
		for p, pw := range row {
			w := ov[pw]
			for ou[cu] < w {
				cu++
			}
			bu, a := ti.row(ti.off[u] + int64(cu))
			bv, b := ti.row(ti.off[v] + int64(pw))
			ow := ti.out(w)
			x, y, z := 0, 0, 0
			for y < len(a) && z < len(b) {
				switch {
				case a[y] < b[z]:
					y++
				case a[y] > b[z]:
					z++
				default:
					for ov[row[x]] < ow[a[y]] {
						x++
					}
					fn(base+int32(p), base+int32(x), bu+int32(y), bv+int32(z))
					y++
					z++
				}
			}
		}
	}
}

// K4DegreePerTriangleParallel returns the number of 4-cliques containing
// each triangle, indexed by triangle id: a count-only pass of k4OfRoot,
// each worker adding into its own array, the arrays summed. It reads only
// the index (built from the graph given).
func (ti *TriangleIndex) K4DegreePerTriangleParallel(_ *graph.Graph, threads int) []int32 {
	degs := make([][]int32, max(threads, 1))
	par.ForEachWorker(len(ti.rank), 64, threads, func(w, lo, hi int) {
		deg := scratch(degs, w, ti.Len())
		for u := lo; u < hi; u++ {
			ti.k4OfRoot(uint32(u), func(t1, t2, t3, t4 int32) {
				deg[t1]++
				deg[t2]++
				deg[t3]++
				deg[t4]++
			})
		}
	})
	return sumWorkers(degs, ti.Len())
}

// CountK4 returns the total number of 4-cliques (each counted once).
func CountK4(g *graph.Graph) int64 {
	ti := BuildTriangleIndexThreads(g, 1)
	var total int64
	for u := range uint32(g.N()) {
		ti.k4OfRoot(u, func(int32, int32, int32, int32) { total++ })
	}
	return total
}

// commonNeighbors3 visits every vertex adjacent to all of u, v and w, in
// increasing id order.
func commonNeighbors3(g *graph.Graph, u, v, w uint32, fn func(x uint32) bool) {
	a, b, c := g.Neighbors(u), g.Neighbors(v), g.Neighbors(w)
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) && k < len(c) {
		x := a[i]
		if b[j] > x {
			x = b[j]
		}
		if c[k] > x {
			x = c[k]
		}
		for i < len(a) && a[i] < x {
			i++
		}
		for j < len(b) && b[j] < x {
			j++
		}
		for k < len(c) && c[k] < x {
			k++
		}
		if i < len(a) && j < len(b) && k < len(c) && a[i] == x && b[j] == x && c[k] == x {
			if !fn(x) {
				return
			}
			i++
			j++
			k++
		}
	}
}
