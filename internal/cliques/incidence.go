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
// (collectGroups). Each triangle is found once, as its three oriented
// slots, gathered in root order; a completed pass leaves the graph's
// triangle index (TriangleIndexOf) off them if it fits the budget beside
// the incidence, then the slots become edge ids, the per-edge counts are
// taken off them and ScatterGroups lays the rows out: rows list triangles
// in that order, bit-identical at every thread count. Panics if the graph
// has more than MaxInt32 edges.
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
				buf = append(buf, int32(uv), int32(uw), int32(vw))
			})
			return buf
		})
	if !ok {
		return nil
	}
	// The pass found the graph's triangle index: triangle t is slot triple
	// t, (uv, uw, vw), its apex vw's place in out(adj[uv]). It is kept only
	// if it fits the budget beside the incidence.
	tris := int64(len(groups) / 3)
	if tris <= math.MaxInt32 && (budget < 0 || EdgeIncidenceBytes(m, int64(len(groups)))+TriangleIndexBytes(len(o.rank), m, tris) <= budget) {
		graph.Memo(o.g, indexKey{}, func() *TriangleIndex {
			ti := &TriangleIndex{oriented: oriented{rank: o.rank, off: o.off, adj: o.adj}, tOff: make([]int32, m+1), apex: make([]uint16, tris)}
			for t := range ti.apex {
				uv := groups[3*t]
				ti.tOff[uv+1]++
				ti.apex[t] = uint16(int64(groups[3*t+2]) - o.off[o.adj[uv]])
			}
			ti.finish()
			return ti
		})
	}
	par.ForEach(len(groups), 4096, threads, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			groups[i] = int32(o.eid[groups[i]])
		}
	})
	inc := &EdgeIncidence{}
	inc.Offs, inc.Pairs, inc.Deg = ScatterGroups(groups, 3, int(m), deg)
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
	inc.Offs, inc.Triples, inc.Deg = ScatterGroups(groups, 4, int(t), deg)
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

// ScatterGroups lays out a flat incidence from its s-cliques: groups holds
// size distinct member cells per s-clique over n cells, cell c is in
// deg[c] of them — counted off the groups when deg is nil, so one
// enumeration serves both — and row c lists each such group's other
// members, in group order, written in one pass at the row's cursor
// offs[c+1] (its start, then its end), the truss and (3,4) sizes unrolled:
// bit-identical at every thread count.
func ScatterGroups(groups []int32, size, n int, deg []int32) ([]int64, []int32, []int32) {
	if deg == nil {
		deg = make([]int32, n)
		for _, c := range groups {
			deg[c]++
		}
	}
	co := int64(size - 1)
	offs := make([]int64, len(deg)+1)
	var total int64
	for c, d := range deg {
		offs[c+1] = total
		total += int64(d) * co
	}
	mem := make([]int32, total)
	switch size {
	case 3:
		for g := groups; len(g) >= 3; g = g[3:] {
			a, b, c := g[0], g[1], g[2]
			wa, wb, wc := offs[a+1], offs[b+1], offs[c+1]
			mem[wa], mem[wa+1], mem[wb], mem[wb+1], mem[wc], mem[wc+1] = b, c, a, c, a, b
			offs[a+1], offs[b+1], offs[c+1] = wa+2, wb+2, wc+2
		}
	case 4:
		for g := groups; len(g) >= 4; g = g[4:] {
			a, b, c, d := g[0], g[1], g[2], g[3]
			wa, wb, wc, wd := offs[a+1], offs[b+1], offs[c+1], offs[d+1]
			mem[wa], mem[wa+1], mem[wa+2], mem[wb], mem[wb+1], mem[wb+2] = b, c, d, a, c, d
			mem[wc], mem[wc+1], mem[wc+2], mem[wd], mem[wd+1], mem[wd+2] = a, b, d, a, b, c
			offs[a+1], offs[b+1], offs[c+1], offs[d+1] = wa+3, wb+3, wc+3, wd+3
		}
	default:
		for g := groups; len(g) >= size; g = g[size:] {
			for j, c := range g[:size] {
				w := offs[c+1] + int64(copy(mem[offs[c+1]:], g[:j]))
				offs[c+1] = w + int64(copy(mem[w:], g[j+1:size]))
			}
		}
	}
	return offs, mem, deg
}
