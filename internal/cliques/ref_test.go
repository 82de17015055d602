package cliques

import (
	"math"

	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// This file keeps the substrates the oriented enumerators replaced,
// verbatim up to names, as the oracles they are held to.
//
// (2,3): per edge {u,v}, owned by its lower endpoint, a merge of the full
// adjacencies N(u) and N(v) — once to count, once more to fill the row at
// the edge's offset, co-member pairs in apex order.
//
// The scatter: refScatterGroups assigned every member its row slot in
// group order into an int64 array, then wrote the co-members in a parallel
// second pass.
//
// The triangle list: before an index derived a triangle's vertices from
// its slot (TriangleIndex.Triangle), it laid out every triangle's sorted
// triple by id, refTriangleList below.
//
// (3,4): the map-based index — the triangle list from per-vertex oriented
// rows, a map from sorted triple to id, a full-adjacency three-way
// intersection per triangle for the 4-clique degrees, and the same
// intersection again, resolved through three map lookups per 4-clique, for
// the incidence.

func refCountPerEdge(g *graph.Graph, threads int) []int32 {
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
				counts[eids[i]] = int32(refIntersectCount(ns, g.Neighbors(v)))
			}
		}
	})
	return counts
}

// refIntersectCount returns |a ∩ b| for sorted slices.
func refIntersectCount(a, b []uint32) int {
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

func refEdgeIncidence(g *graph.Graph, deg []int32, threads int) *EdgeIncidence {
	if g.M() > math.MaxInt32 {
		panic("cliques: graph too large for int32 edge cells")
	}
	if deg == nil {
		deg = refCountPerEdge(g, threads)
	}
	m := g.M()
	inc := &EdgeIncidence{Offs: make([]int64, m+1)}
	for e := int64(0); e < m; e++ {
		inc.Offs[e+1] = inc.Offs[e] + 2*int64(deg[e])
	}
	inc.Pairs = make([]int32, inc.Offs[m])

	par.Ranges(g.N(), threads, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			ns := g.Neighbors(uu)
			eids := g.EdgeIDs(uu)
			for i, v := range ns {
				if v <= uu {
					continue
				}
				// Merge N(u) and N(v); every common neighbor w closes the
				// triangle {u,v,w}, whose co-member edges are {u,w} (id on
				// u's row) and {v,w} (id on v's row) — the same order
				// ForEachTriangleOfEdge emits.
				pos := inc.Offs[eids[i]]
				nv := g.Neighbors(v)
				ev := g.EdgeIDs(v)
				x, y := 0, 0
				for x < len(ns) && y < len(nv) {
					switch {
					case ns[x] < nv[y]:
						x++
					case ns[x] > nv[y]:
						y++
					default:
						inc.Pairs[pos] = int32(eids[x])
						inc.Pairs[pos+1] = int32(ev[y])
						pos += 2
						x++
						y++
					}
				}
			}
		}
	})
	return inc
}

type refTriangleIndex struct {
	List  []Triangle
	byKey map[Triangle]int32
}

func newRefTriangleIndex(g *graph.Graph) *refTriangleIndex {
	var list []Triangle
	refForEach(g, func(t Triangle) bool {
		list = append(list, t)
		return true
	})
	idx := &refTriangleIndex{List: list, byKey: make(map[Triangle]int32, len(list))}
	for i, t := range list {
		idx.byKey[t] = int32(i)
	}
	return idx
}

func (ti *refTriangleIndex) Len() int { return len(ti.List) }

func (ti *refTriangleIndex) ID(a, b, c uint32) (int32, bool) {
	id, ok := ti.byKey[sortedTriple(a, b, c)]
	return id, ok
}

func (ti *refTriangleIndex) ForEachK4OfTriangle(g *graph.Graph, t int32, fn func(x uint32, t1, t2, t3 int32) bool) {
	tri := ti.List[t]
	u, v, w := tri[0], tri[1], tri[2]
	commonNeighbors3(g, u, v, w, func(x uint32) bool {
		t1, ok1 := ti.ID(u, v, x)
		t2, ok2 := ti.ID(u, w, x)
		t3, ok3 := ti.ID(v, w, x)
		if !ok1 || !ok2 || !ok3 {
			panic("cliques: inconsistent triangle index")
		}
		return fn(x, t1, t2, t3)
	})
}

func (ti *refTriangleIndex) K4DegreePerTriangle(g *graph.Graph) []int32 {
	deg := make([]int32, ti.Len())
	for t := range deg {
		tri := ti.List[t]
		c := 0
		commonNeighbors3(g, tri[0], tri[1], tri[2], func(uint32) bool {
			c++
			return true
		})
		deg[t] = int32(c)
	}
	return deg
}

func refK4Incidence(g *graph.Graph, ti *refTriangleIndex, threads int) *K4Incidence {
	deg := ti.K4DegreePerTriangle(g)
	t := int64(ti.Len())
	inc := &K4Incidence{Offs: make([]int64, t+1)}
	for i := int64(0); i < t; i++ {
		inc.Offs[i+1] = inc.Offs[i] + 3*int64(deg[i])
	}
	inc.Triples = make([]int32, inc.Offs[t])

	par.Ranges(ti.Len(), threads, func(_, lo, hi int) {
		for tr := lo; tr < hi; tr++ {
			pos := inc.Offs[tr]
			ti.ForEachK4OfTriangle(g, int32(tr), func(_ uint32, t1, t2, t3 int32) bool {
				inc.Triples[pos] = t1
				inc.Triples[pos+1] = t2
				inc.Triples[pos+2] = t3
				pos += 3
				return true
			})
		}
	})
	return inc
}

func refForEach(g *graph.Graph, fn func(Triangle) bool) {
	rank := g.DegreeOrder()
	n := g.N()
	out := refOrientedAdjacency(g, rank)
	for u := 0; u < n; u++ {
		if !refTrianglesOfRoot(out, u, fn) {
			return
		}
	}
}

func refTrianglesOfRoot(out [][]uint32, u int, fn func(Triangle) bool) bool {
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

func refOrientedAdjacency(g *graph.Graph, rank []int32) [][]uint32 {
	n := g.N()
	out := make([][]uint32, n)
	for u := 0; u < n; u++ {
		var row []uint32
		for _, v := range g.Neighbors(uint32(u)) {
			if rank[v] > rank[u] {
				row = append(row, v)
			}
		}
		out[u] = row
	}
	return out
}

// refTriangleList is the per-triangle list the index kept: triangle t, on
// the row of oriented edge k = (u→v), is u, v and the vertex at position
// apex[t] of out(v).
func refTriangleList(ti *TriangleIndex, threads int) []Triangle {
	list := make([]Triangle, len(ti.apex))
	par.ForEach(len(ti.rank), 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for k := ti.off[u]; k < ti.off[u+1]; k++ {
				v := ti.adj[k]
				for t := ti.tOff[k]; t < ti.tOff[k+1]; t++ {
					list[t] = sortedTriple(uint32(u), v, ti.out(v)[ti.apex[t]])
				}
			}
		}
	})
	return list
}

func refScatterGroups(groups []int32, size int, deg []int32, threads int) (offs []int64, mem []int32) {
	co := int64(size - 1)
	n := len(deg)
	offs = make([]int64, n+1)
	for c, d := range deg {
		offs[c+1] = offs[c] + int64(d)*co
	}
	cursor := append([]int64(nil), offs[:n]...)
	slots := make([]int64, len(groups))
	for i, c := range groups {
		slots[i] = cursor[c]
		cursor[c] += co
	}
	mem = make([]int32, offs[n])
	par.ForEach(len(groups)/size, 512, threads, func(lo, hi int) {
		for gi := lo; gi < hi; gi++ {
			grp := groups[gi*size : (gi+1)*size]
			for j := range grp {
				w := slots[gi*size+j]
				for m, d := range grp {
					if m != j {
						mem[w] = d
						w++
					}
				}
			}
		}
	})
	return offs, mem
}
