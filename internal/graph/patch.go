package graph

import (
	"fmt"
	"slices"
)

// Patch returns g grown to n vertices (n >= g.N()) with the rows named by
// rows replaced: the CSR a publish of an edited graph needs, built from the
// CSR the previous version already is instead of from an edge list. Every
// replacement row must be sorted, duplicate- and loop-free, and the set
// symmetric (v in the new row of u iff u in the new row of v) — an edit
// replaces the rows of both its endpoints. Vertices at or past g.N() that
// have no entry are isolated. g and the rows are only read; the result
// shares no storage with either.
//
// The result is bit-identical to Build(n, edges) of the same edge set —
// edge ids, numbered on first use like Build's, included — from a degree
// prefix sum and one bulk copy per untouched stretch of rows. The rows are
// checked here, at call time, against the rows they replace: a row that is
// unsorted, or a set that is not symmetric, panics.
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
	checkSymmetric(g, rows, touched)

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

	return &Graph{offs: offs, adj: adj}
}

// checkSymmetric panics unless replacing g's rows by rows keeps the graph
// simple and symmetric. g is, so only what changed can break it: every
// entry a touched row u gained or lost — the ascending merge of its old and
// new content finds them — must name a touched row v that gained or lost u.
// Each change {u,v} is therefore met twice, once from either side: none may
// be left met an odd number of times.
func checkSymmetric(g *Graph, rows map[uint32][]uint32, touched []uint32) {
	odd := map[[2]uint32]bool{}
	flip := func(u, v uint32) {
		key := [2]uint32{min(u, v), max(u, v)}
		odd[key] = !odd[key]
	}
	for _, u := range touched {
		var was []uint32
		if int(u) < g.N() {
			was = g.Neighbors(u)
		}
		for i, v := range rows[u] {
			if v == u || i > 0 && rows[u][i-1] >= v {
				panic(fmt.Sprintf("graph: Patch row %d is not a sorted simple row", u))
			}
			for len(was) > 0 && was[0] < v {
				flip(u, was[0])
				was = was[1:]
			}
			if len(was) > 0 && was[0] == v {
				was = was[1:]
			} else {
				flip(u, v)
			}
		}
		for _, v := range was {
			flip(u, v)
		}
	}
	for _, unmatched := range odd {
		if unmatched {
			panic("graph: Patch rows are not symmetric")
		}
	}
}
