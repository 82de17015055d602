// Package nucleustest is test support for the nucleus instances: Hyper,
// the explicit-hypergraph (r,s) instance every production instance is
// checked against, the helpers that read any instance's rows, and the
// paper's H function, which the sweep kernels are checked against. It is
// imported from _test.go files only — CI fails if it shows up in
// `go list -deps . ./cmd/...` — and shares nothing with internal/nucleus
// but the Rows type its instances hand out, so the oracle cannot inherit a
// bug from the instances it checks.
package nucleustest

import (
	"fmt"
	"sort"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// Hyper is the explicit-hypergraph instance for an arbitrary (r,s) nucleus
// decomposition, r < s. Every r-clique and s-clique of the graph is
// enumerated and materialized: cell c's s-clique list holds, for each
// s-clique containing c, the ids of its other C(s,r)-1 member r-cliques.
//
// The paper notes (§5) that materialization is infeasible for large
// networks; Hyper is deliberately the naive ragged-slice construction, kept
// as the correctness oracle for the production instances (it satisfies
// nucleus.Instance, so every engine runs on it unchanged). Its rows are
// handed out as discovered ones, copied into the caller's buffer.
type Hyper struct {
	r, s int
	// cells[i] is the sorted vertex set of r-clique i.
	cells [][]uint32
	// memberships[c] lists, for each s-clique containing c, the other
	// member cells, flattened: each group has groupSize entries.
	memberships [][]int32
	groupSize   int
	degrees     []int32
}

// NewHyper enumerates the r-cliques and s-cliques of g and builds the
// explicit instance. Panics if r >= s or r < 1.
func NewHyper(g *graph.Graph, r, s int) *Hyper {
	if r < 1 || r >= s {
		panic(fmt.Sprintf("nucleus: invalid (r,s) = (%d,%d)", r, s))
	}
	h := &Hyper{r: r, s: s}

	// Enumerate and index r-cliques.
	idOf := make(map[string]int32)
	cliques.ForEachKClique(g, r, func(members []uint32) bool {
		cp := append([]uint32(nil), members...)
		idOf[cliqueKey(cp)] = int32(len(h.cells))
		h.cells = append(h.cells, cp)
		return true
	})
	h.memberships = make([][]int32, len(h.cells))
	h.degrees = make([]int32, len(h.cells))
	h.groupSize = binom(s, r) - 1

	// For each s-clique, find its member r-cliques and cross-register.
	sub := make([]uint32, r)
	memberIDs := make([]int32, 0, binom(s, r))
	cliques.ForEachKClique(g, s, func(members []uint32) bool {
		memberIDs = memberIDs[:0]
		forEachSubset(members, r, sub, func() {
			id, ok := idOf[cliqueKey(sub)]
			if !ok {
				panic("nucleus: s-clique subset missing from r-clique index")
			}
			memberIDs = append(memberIDs, id)
		})
		for _, c := range memberIDs {
			h.degrees[c]++
			for _, d := range memberIDs {
				if d != c {
					h.memberships[c] = append(h.memberships[c], d)
				}
			}
		}
		return true
	})
	return h
}

func (h *Hyper) R() int        { return h.r }
func (h *Hyper) S() int        { return h.s }
func (h *Hyper) NumCells() int { return len(h.cells) }

func (h *Hyper) Degrees() []int32 { return append([]int32(nil), h.degrees...) }

func (h *Hyper) Rows() nucleus.Rows {
	return nucleus.DiscoveredRows(h.groupSize, func(c int32, buf []int32) []int32 {
		return append(buf, h.memberships[c]...)
	})
}

func (h *Hyper) CellVertices(c int32, buf []uint32) []uint32 {
	return append(buf, h.cells[c]...)
}

func (h *Hyper) CellLabel(c int32) string {
	return fmt.Sprintf("c%v", h.cells[c])
}

// CellID returns the id of the r-clique with the given vertices (any order),
// or -1 if absent. Intended for tests and cross-checks.
func (h *Hyper) CellID(vertices []uint32) int32 {
	cp := append([]uint32(nil), vertices...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	// Linear scan index rebuild would be wasteful; build lazily.
	for i, cell := range h.cells {
		if equalU32(cell, cp) {
			return int32(i)
		}
	}
	return -1
}

// Cells returns the vertex sets of all cells. The outer slice is fresh; the
// inner slices alias internal storage.
func (h *Hyper) Cells() [][]uint32 {
	return append([][]uint32(nil), h.cells...)
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cliqueKey packs a sorted vertex list into a string key.
func cliqueKey(vs []uint32) string {
	b := make([]byte, 4*len(vs))
	for i, v := range vs {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// forEachSubset enumerates the size-k subsets of the sorted set, writing
// each into buf and invoking fn.
func forEachSubset(set []uint32, k int, buf []uint32, fn func()) {
	var rec func(start, picked int)
	rec = func(start, picked int) {
		if picked == k {
			fn()
			return
		}
		for i := start; i+(k-picked) <= len(set); i++ {
			buf[picked] = set[i]
			rec(i+1, picked+1)
		}
	}
	rec(0, 0)
}

// binom computes C(n,k) for the small arguments used here.
func binom(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1
	for i := 1; i <= k; i++ {
		res = res * (n - k + i) / i
	}
	return res
}
