package cliques

import (
	"math"

	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// This file materializes the s-clique incidence of the (2,3) and (3,4)
// decompositions as flat CSR arrays: per cell, the co-member cell ids of
// every s-clique containing it, stored contiguously. The on-the-fly
// instances re-discover every triangle / 4-clique by sorted-merge
// intersection on every sweep of the local algorithms; the flat index pays
// that discovery cost exactly once and turns each subsequent sweep into a
// pure array scan. The trade-off is the paper's §5 memory stance: the
// index stores every s-clique membership, so callers must check the
// *Bytes estimate against a budget before building (package nucleus's
// Build does).

// EdgeIncidence is the flat triangle incidence of a graph's edges: for
// edge e, Pairs[Offs[e]:Offs[e+1]] holds, per triangle containing e, the
// dense ids of the triangle's two other edges (the co-member cells of the
// (2,3) decomposition), two int32 entries per triangle.
type EdgeIncidence struct {
	// Offs has length M+1, in units of int32 entries of Pairs.
	Offs []int64
	// Pairs holds the concatenated co-member edge-id pairs.
	Pairs []int32
}

// Bytes returns the memory held by the index arrays.
func (inc *EdgeIncidence) Bytes() int64 {
	return 8*int64(len(inc.Offs)) + 4*int64(len(inc.Pairs))
}

// EdgeIncidenceBytes estimates the memory of an EdgeIncidence for a graph
// with m edges whose per-edge triangle counts sum to sumDeg (= 3·|triangles|):
// an int64 offset per edge plus two int32 co-member ids per incidence.
func EdgeIncidenceBytes(m, sumDeg int64) int64 {
	return 8*(m+1) + 8*sumDeg
}

// BuildEdgeIncidence builds the flat triangle incidence over an orientation
// of the graph (deg: the per-edge triangle counts, or nil to count them).
// Each triangle is found once, as its three edge ids, gathered in root
// order and laid out by ScatterGroups: rows list triangles in that order,
// bit-identical at every thread count. Panics if the graph has more than
// MaxInt32 edges (cell ids are int32).
func BuildEdgeIncidence(o *OrientedEdges, deg []int32, threads int) *EdgeIncidence {
	if len(o.adj) > math.MaxInt32 {
		panic("cliques: graph too large for int32 edge cells")
	}
	if deg == nil {
		deg = o.CountPerEdge(threads)
	}
	marks := make([][]int32, max(threads, 1))
	groups := par.Collect(len(o.rank), 64, threads, func(w, u int, buf []int32) []int32 {
		o.trianglesOfRoot(uint32(u), scratch(marks, w, len(o.rank)), func(uv, uw, vw int64) {
			buf = append(buf, int32(o.eid[uv]), int32(o.eid[uw]), int32(o.eid[vw]))
		})
		return buf
	})
	offs, pairs := ScatterGroups(groups, 3, deg, threads)
	return &EdgeIncidence{Offs: offs, Pairs: pairs}
}

// K4Incidence is the flat 4-clique incidence of a graph's triangles: for
// triangle t, Triples[Offs[t]:Offs[t+1]] holds, per 4-clique containing t,
// the dense ids of the 4-clique's three other triangles (the co-member
// cells of the (3,4) decomposition), three int32 entries per 4-clique.
type K4Incidence struct {
	// Offs has length |triangles|+1, in units of int32 entries of Triples.
	Offs []int64
	// Triples holds the concatenated co-member triangle-id triples.
	Triples []int32
}

// Bytes returns the memory held by the index arrays.
func (inc *K4Incidence) Bytes() int64 {
	return 8*int64(len(inc.Offs)) + 4*int64(len(inc.Triples))
}

// K4IncidenceBytes estimates the memory of a K4Incidence for t triangles
// whose per-triangle 4-clique counts sum to sumDeg (= 4·|K4|): an int64
// offset per triangle plus three int32 co-member ids per incidence.
func K4IncidenceBytes(t, sumDeg int64) int64 {
	return 8*(t+1) + 12*sumDeg
}

// BuildK4Incidence builds the flat 4-clique incidence over a triangle index
// of g (deg: the K4 degrees, or nil to count them). Each 4-clique is found
// once, as its four triangle ids, gathered in root order and laid out by
// ScatterGroups: rows list 4-cliques in that order, bit-identical at every
// thread count.
func BuildK4Incidence(g *graph.Graph, ti *TriangleIndex, deg []int32, threads int) *K4Incidence {
	if deg == nil {
		deg = ti.K4DegreePerTriangleParallel(g, threads)
	}
	groups := par.Collect(len(ti.rank), 64, threads, func(_, u int, buf []int32) []int32 {
		ti.k4OfRoot(uint32(u), func(t1, t2, t3, t4 int32) {
			buf = append(buf, t1, t2, t3, t4)
		})
		return buf
	})
	offs, triples := ScatterGroups(groups, 4, deg, threads)
	return &K4Incidence{Offs: offs, Triples: triples}
}

// ScatterGroups lays out a flat incidence from its s-cliques: groups holds
// size member cells per s-clique, cell c is in deg[c] of them, and row c
// lists each such group's other members, in group order. Prefix sum, slots
// assigned in group order, parallel scatter: bit-identical at every thread
// count.
func ScatterGroups(groups []int32, size int, deg []int32, threads int) (offs []int64, mem []int32) {
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
