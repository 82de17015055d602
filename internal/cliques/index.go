package cliques

import (
	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// TriangleIndex assigns dense ids to every triangle of a graph and supports
// id lookup by vertex triple. It is the cell index for the (3,4) nucleus
// decomposition.
type TriangleIndex struct {
	// List holds triangles by id, each sorted ascending.
	List  []Triangle
	byKey map[Triangle]int32
}

// BuildTriangleIndex enumerates all triangles and indexes them. It is
// BuildTriangleIndexThreads with a single thread.
func BuildTriangleIndex(g *graph.Graph) *TriangleIndex {
	return BuildTriangleIndexThreads(g, 1)
}

// BuildTriangleIndexThreads is BuildTriangleIndex with the enumeration
// fanned out across threads. Triangle ids are bit-identical at every thread
// count: the list comes from the chunk-ordered parallel enumeration, which
// reproduces ForEach's sequential order, and ids are positions in it. Only
// the map insert loop stays serial.
func BuildTriangleIndexThreads(g *graph.Graph, threads int) *TriangleIndex {
	list := Triangles(g, threads)
	idx := &TriangleIndex{List: list, byKey: make(map[Triangle]int32, len(list))}
	for i, t := range list {
		idx.byKey[t] = int32(i)
	}
	return idx
}

// Len returns the number of triangles.
func (ti *TriangleIndex) Len() int { return len(ti.List) }

// ID returns the dense id of the triangle on vertices {a,b,c}, which need
// not be sorted.
func (ti *TriangleIndex) ID(a, b, c uint32) (int32, bool) {
	id, ok := ti.byKey[sortedTriple(a, b, c)]
	return id, ok
}

// ForEachK4OfTriangle calls fn for every 4-clique containing triangle t,
// passing the apex vertex x and the ids of the three other triangles of the
// 4-clique: {u,v,x}, {u,w,x}, {v,w,x}. Iteration stops if fn returns false.
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

// K4DegreePerTriangle returns the number of 4-cliques containing each
// triangle, indexed by triangle id.
func (ti *TriangleIndex) K4DegreePerTriangle(g *graph.Graph) []int32 {
	return ti.K4DegreePerTriangleParallel(g, 1)
}

// K4DegreePerTriangleParallel is K4DegreePerTriangle with the triangle
// rows split across the given number of workers: the per-cell degree
// initialization of the (3,4) instance is embarrassingly parallel (each
// triangle's count is written by exactly one worker), mirroring
// CountPerEdgeParallel for the (2,3) instance.
func (ti *TriangleIndex) K4DegreePerTriangleParallel(g *graph.Graph, threads int) []int32 {
	deg := make([]int32, ti.Len())
	par.Ranges(ti.Len(), threads, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			tri := ti.List[t]
			c := 0
			commonNeighbors3(g, tri[0], tri[1], tri[2], func(uint32) bool {
				c++
				return true
			})
			deg[t] = int32(c)
		}
	})
	return deg
}

// CountK4 returns the total number of 4-cliques (each counted once).
func CountK4(g *graph.Graph) int64 {
	var total int64
	ti := BuildTriangleIndex(g)
	for t := range ti.List {
		tri := ti.List[t]
		// Count apexes x greater than the max vertex of the triangle so
		// each K4 is counted exactly once, from its lexicographically
		// smallest triangle.
		commonNeighbors3(g, tri[0], tri[1], tri[2], func(x uint32) bool {
			if x > tri[2] {
				total++
			}
			return true
		})
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
