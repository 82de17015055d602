package cliques

import (
	"math"
	"sync/atomic"

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
// index stores every s-clique membership, so a build must stay within a
// budget: the *Within builders price the s-cliques as they collect them
// (the *Bytes estimate) and give up once the price exceeds it, before
// anything proportional to the index is laid out (package nucleus's Build
// calls them).

// EdgeIncidence is the flat triangle incidence of a graph's edges: for
// edge e, Pairs[Offs[e]:Offs[e+1]] holds, per triangle containing e, the
// dense ids of the triangle's two other edges (the co-member cells of the
// (2,3) decomposition), two int32 entries per triangle.
type EdgeIncidence struct {
	// Offs has length M+1, in units of int32 entries of Pairs.
	Offs []int64
	// Pairs holds the concatenated co-member edge-id pairs.
	Pairs []int32
	// Deg holds the per-edge triangle counts the rows were laid out by.
	Deg []int32
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

// EdgeIncidenceWithin builds the flat triangle incidence over an
// orientation of the graph under a memory budget in bytes (negative:
// unlimited), or returns nil once the EdgeIncidenceBytes of the triangles
// collected so far exceeds it, before anything is laid out
// (collectGroups). Each triangle is found once, as its three edge ids,
// gathered in root order; the per-edge counts are taken off them and
// ScatterGroups lays the rows out: rows list triangles in that order,
// bit-identical at every thread count. Panics if the graph has more than
// MaxInt32 edges (cell ids are int32).
func EdgeIncidenceWithin(o *OrientedEdges, budget int64, threads int) *EdgeIncidence {
	return o.incidence(nil, budget, threads)
}

// BuildEdgeIncidence is the two-pass form of EdgeIncidenceWithin, the
// reference the tests hold it to: the same group pass, unlimited, laid out
// by deg, the per-edge triangle counts of a count-only pass (CountPerEdge).
func BuildEdgeIncidence(o *OrientedEdges, deg []int32, threads int) *EdgeIncidence {
	return o.incidence(deg, -1, threads)
}

func (o *OrientedEdges) incidence(deg []int32, budget int64, threads int) *EdgeIncidence {
	if len(o.adj) > math.MaxInt32 {
		panic("cliques: graph too large for int32 edge cells")
	}
	m := int64(len(o.adj))
	marks := make([][]int32, max(threads, 1))
	groups, ok := collectGroups(len(o.rank), threads, budget, func(k int64) int64 { return EdgeIncidenceBytes(m, k) },
		func(w, u int, buf []int32) []int32 {
			o.trianglesOfRoot(uint32(u), scratch(marks, w, len(o.rank)), func(uv, uw, vw int64) {
				buf = append(buf, int32(o.eid[uv]), int32(o.eid[uw]), int32(o.eid[vw]))
			})
			return buf
		})
	if !ok {
		return nil
	}
	inc := &EdgeIncidence{}
	inc.Offs, inc.Pairs, inc.Deg = scatter(groups, 3, int(m), deg, threads)
	return inc
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
	// Deg holds the per-triangle 4-clique counts the rows were laid out by.
	Deg []int32
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

// K4IncidenceWithin builds the flat 4-clique incidence over a triangle
// index under a memory budget in bytes (negative: unlimited), or returns
// nil once the K4IncidenceBytes of the 4-cliques collected so far exceeds
// it, before anything is laid out (collectGroups). Each 4-clique is found
// once, as its four triangle ids, gathered in root order; the K4 degrees
// are taken off them and ScatterGroups lays the rows out: rows list
// 4-cliques in that order, bit-identical at every thread count.
func K4IncidenceWithin(ti *TriangleIndex, budget int64, threads int) *K4Incidence {
	return ti.incidence(nil, budget, threads)
}

// BuildK4Incidence is the two-pass form of K4IncidenceWithin, the
// reference the tests hold it to and the group pass bench times: the same
// pass, unlimited, laid out by deg, the K4 degrees of a count-only pass
// (K4DegreePerTriangleParallel).
func BuildK4Incidence(_ *graph.Graph, ti *TriangleIndex, deg []int32, threads int) *K4Incidence {
	return ti.incidence(deg, -1, threads)
}

func (ti *TriangleIndex) incidence(deg []int32, budget int64, threads int) *K4Incidence {
	t := int64(ti.Len())
	groups, ok := collectGroups(len(ti.rank), threads, budget, func(k int64) int64 { return K4IncidenceBytes(t, k) },
		func(_, u int, buf []int32) []int32 {
			ti.k4OfRoot(uint32(u), func(t1, t2, t3, t4 int32) {
				buf = append(buf, t1, t2, t3, t4)
			})
			return buf
		})
	if !ok {
		return nil
	}
	inc := &K4Incidence{}
	inc.Offs, inc.Triples, inc.Deg = scatter(groups, 4, int(t), deg, threads)
	return inc
}

// collectGroups is the group pass of a stored build: root appends the
// s-cliques found from root vertex u to the worker's buffer, member cells
// only, and par.Collect concatenates the buffers in root order. A running
// total of the members collected — one atomic add per root that found
// any — is priced by bytes; once that exceeds the budget (negative:
// unlimited) every later root drops its chunk's buffer and appends
// nothing, so only the chunks finished before then reach the copy, and ok
// is false. A completed pass's price is the exact index size, so ok is the
// budget check Build would make on the counted degrees, at no count pass.
func collectGroups(roots, threads int, budget int64, bytes func(members int64) int64, root func(w, u int, buf []int32) []int32) (groups []int32, ok bool) {
	if budget < 0 {
		budget = math.MaxInt64
	}
	var members atomic.Int64
	groups = par.Collect(roots, 64, threads, func(w, u int, buf []int32) []int32 {
		if bytes(members.Load()) > budget {
			return nil
		}
		k := len(buf)
		if buf = root(w, u, buf); len(buf) > k {
			members.Add(int64(len(buf) - k))
		}
		return buf
	})
	return groups, bytes(members.Load()) <= budget
}

// scatter lays out groups of size cells over n cells with ScatterGroups,
// first counting the s-degrees off the groups when deg is nil: one
// enumeration serves both.
func scatter(groups []int32, size, n int, deg []int32, threads int) ([]int64, []int32, []int32) {
	if deg == nil {
		deg = make([]int32, n)
		for _, c := range groups {
			deg[c]++
		}
	}
	offs, mem := ScatterGroups(groups, size, deg, threads)
	return offs, mem, deg
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
