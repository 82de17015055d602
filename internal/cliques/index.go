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
// out(v), in id order, and triangle {u, v, apex[i]} has id i. That is the
// order ForEach emits triangles in, so List[i] is triangle i.
type TriangleIndex struct {
	// List holds triangles by id, each sorted ascending.
	List []Triangle
	oriented
	tOff []int32
	apex []uint32
}

// BuildTriangleIndex enumerates all triangles and indexes them. It is
// BuildTriangleIndexThreads with a single thread.
func BuildTriangleIndex(g *graph.Graph) *TriangleIndex {
	return BuildTriangleIndexThreads(g, 1)
}

// BuildTriangleIndexThreads is BuildTriangleIndex fanned out across threads
// by root vertex (trianglesOfRoot); rows are gathered in root order, so ids
// are bit-identical at every thread count. Panics if int32 cell ids cannot
// number them all.
func BuildTriangleIndexThreads(g *graph.Graph, threads int) *TriangleIndex {
	ti := &TriangleIndex{oriented: orient(g, g.DegreeOrder(), false, threads)}
	m := len(ti.adj)
	ti.tOff = make([]int32, m+1)
	marks := make([][]int32, max(threads, 1))
	ti.apex = par.Collect(g.N(), 64, threads, func(w, u int, buf []uint32) []uint32 {
		ti.trianglesOfRoot(uint32(u), scratch(marks, w, g.N()), func(uv, _, vw int64) {
			buf = append(buf, ti.adj[vw])
			ti.tOff[uv+1]++
		})
		return buf
	})
	var total int64
	for k := 1; k <= m; k++ {
		total += int64(ti.tOff[k])
		ti.tOff[k] = int32(total)
	}
	checkCellIDs(total)

	ti.List = make([]Triangle, len(ti.apex))
	par.ForEach(g.N(), 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for k := ti.off[u]; k < ti.off[u+1]; k++ {
				v := ti.adj[k]
				for t := ti.tOff[k]; t < ti.tOff[k+1]; t++ {
					ti.List[t] = sortedTriple(uint32(u), v, ti.apex[t])
				}
			}
		}
	})
	return ti
}

// checkCellIDs panics if int32 cell ids cannot number n triangles.
func checkCellIDs(n int64) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("cliques: %d triangles exceed int32 cell ids", n))
	}
}

// Len returns the number of triangles.
func (ti *TriangleIndex) Len() int { return len(ti.List) }

// ID returns the dense id of the triangle on vertices {a,b,c}, in any
// order: ranked u < v < w, w's slot in the row of u→v, by binary search in
// out(u) and in the row. False for a vertex out of range, a repeated vertex
// (no row holds its own endpoint) or a non-triangle.
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
		if j, ok := slices.BinarySearch(row, c); ok {
			return lo + int32(j), true
		}
	}
	return 0, false
}

// row returns oriented edge k's first triangle id and its row of apexes.
func (ti *TriangleIndex) row(k int64) (int32, []uint32) {
	return ti.tOff[k], ti.apex[ti.tOff[k]:ti.tOff[k+1]]
}

// ForEachK4OfTriangle calls fn for every 4-clique containing triangle t,
// passing the apex vertex x and the ids of the three other triangles of the
// 4-clique: {u,v,x}, {u,w,x}, {v,w,x}. Iteration stops if fn returns false.
// This is the on-the-fly discovery; the builds use k4OfRoot instead.
func (ti *TriangleIndex) ForEachK4OfTriangle(g *graph.Graph, t int32, fn func(x uint32, t1, t2, t3 int32) bool) {
	tri := ti.List[t]
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
// W of u→v holds every w and x; for each w ∈ W, cursors advance to w's slot
// in out(u) and out(v), and a merge of the rows of u→w and v→w — whose
// intersection lies inside W — yields every x, with the four ids read off
// the merge positions: no search, no map, no full-adjacency intersection.
func (ti *TriangleIndex) k4OfRoot(u uint32, fn func(tuvw, tuvx, tuwx, tvwx int32)) {
	ou := ti.out(u)
	for i, v := range ou {
		base, row := ti.row(ti.off[u] + int64(i))
		ov := ti.out(v)
		cu, cv := 0, 0
		for p, w := range row {
			for ou[cu] < w {
				cu++
			}
			for ov[cv] < w {
				cv++
			}
			bu, a := ti.row(ti.off[u] + int64(cu))
			bv, b := ti.row(ti.off[v] + int64(cv))
			x, y, z := 0, 0, 0
			for y < len(a) && z < len(b) {
				switch {
				case a[y] < b[z]:
					y++
				case a[y] > b[z]:
					z++
				default:
					for row[x] < a[y] {
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

// K4DegreePerTriangle returns the number of 4-cliques containing each
// triangle, indexed by triangle id.
func (ti *TriangleIndex) K4DegreePerTriangle(g *graph.Graph) []int32 {
	return ti.K4DegreePerTriangleParallel(g, 1)
}

// K4DegreePerTriangleParallel is K4DegreePerTriangle across workers: a
// count-only pass of k4OfRoot, each worker adding into its own array, the
// arrays summed. It reads only the index (built from the graph given).
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
	ti := BuildTriangleIndex(g)
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
