package graph

import "slices"

// Patch returns g grown to n vertices (n >= g.N()) with the rows named by
// rows replaced: the CSR a publish of an edited graph needs, built from the
// CSR the previous version already is instead of from an edge list. Every
// replacement row must be sorted, duplicate- and loop-free, and the set
// symmetric (v in the new row of u iff u in the new row of v) — an edit
// replaces the rows of both its endpoints. Vertices at or past g.N() that
// have no entry are isolated. g and the rows are only read; the result
// shares no storage with either.
//
// The result is bit-identical to Build(n, edges) of the same edge set, edge
// ids included, with no sort and no search: a degree prefix sum, one bulk
// copy per untouched stretch of rows, and one ascending row walk in which an
// upper entry (u, v>u) takes the next edge id and mirrors it into the next
// unfilled lower slot of row v. Rows are walked in order and row v's lower
// neighbors are sorted, so that slot is u's, and when the walk reaches a
// row its cursor has already passed every lower entry.
func (g *Graph) Patch(n int, rows map[uint32][]uint32) *Graph {
	baseN := g.N()
	if n < baseN {
		panic("graph: Patch cannot shrink the vertex set")
	}
	touched := make([]uint32, 0, len(rows))
	total := int64(len(g.adj))
	for u, row := range rows {
		touched = append(touched, u)
		total += int64(len(row))
		if int(u) < baseN {
			total -= int64(g.Degree(u))
		}
	}
	slices.Sort(touched)

	offs := make([]int64, n+1)
	adj := make([]uint32, total)
	// keep lays out the untouched rows [lo,hi): base rows keep their content
	// at a constant shift, rows past the base are empty.
	keep := func(lo, hi int) {
		if top := min(hi, baseN); lo < top {
			shift := offs[lo] - g.offs[lo]
			for u := lo; u < top; u++ {
				offs[u+1] = g.offs[u+1] + shift
			}
			copy(adj[offs[lo]:offs[top]], g.adj[g.offs[lo]:g.offs[top]])
			lo = top
		}
		for u := lo; u < hi; u++ {
			offs[u+1] = offs[u]
		}
	}
	next := 0
	for _, u := range touched {
		keep(next, int(u))
		offs[u+1] = offs[u] + int64(copy(adj[offs[u]:], rows[u]))
		next = int(u) + 1
	}
	keep(next, n)

	out := &Graph{
		offs: offs, adj: adj, eid: make([]int64, total), m: total / 2,
		edgeU: make([]uint32, total/2), edgeV: make([]uint32, total/2),
	}
	cursor := slices.Clone(offs[:n])
	var id int64
	for u := 0; u < n; u++ {
		for i := cursor[u]; i < offs[u+1]; i++ {
			v := adj[i]
			out.eid[i], out.edgeU[id], out.edgeV[id] = id, uint32(u), v
			out.eid[cursor[v]] = id
			cursor[v]++
			id++
		}
	}
	if id != out.m {
		panic("graph: Patch rows are not symmetric")
	}
	return out
}
