package nucleus

import (
	"fmt"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// FlatIncidence is implemented by instances whose s-clique incidence
// exists as flat CSR arrays: Flat, which materializes it, and Core, for
// which the graph's adjacency already is it. Algorithms call RowsOf.
type FlatIncidence interface {
	Instance
	Rows() Rows
}

// Rows is a stored s-clique incidence: cell c's s-cliques are Row(c), Co
// consecutive co-member cell ids per s-clique (1 for (1,2), 2 for (2,3),
// 3 for (3,4)). The arrays are immutable and shared with the instance.
type Rows struct {
	Offs []int64
	Mem  []int32
	Co   int
}

// RowsOf is the one way to ask an instance for its stored rows: the sweep
// kernels (internal/localhi), the peel (internal/peel) and the forest
// (internal/hierarchy) scan them in place of a closure per s-clique. One
// without them (Truss, N34, a wrapper hiding FlatIncidence) reports false.
func RowsOf(inst Instance) (Rows, bool) {
	f, ok := inst.(FlatIncidence)
	if !ok {
		return Rows{}, false
	}
	r := f.Rows()
	return r, r.Co >= 1 && len(r.Offs) > 0
}

// Row returns the co-members of cell c's s-cliques, Co ids per s-clique.
//
//nucleus:noalloc
func (r Rows) Row(c int32) []int32 { return r.Mem[r.Offs[c]:r.Offs[c+1]] }

// Flat is the stored-s-cliques instance of any (r,s) decomposition — the
// other side of the paper's §5 fork from the on-the-fly Truss and N34:
// every VisitSCliques is a contiguous scan of a CSR row instead of an
// adjacency intersection. It implements FlatIncidence, so the fused
// zero-allocation sweep kernel of internal/localhi applies to every
// family. Three builders feed it: NewFlatTruss (edge incidence, cells
// numbered by edge id), NewFlatN34 (4-clique incidence, cells numbered by
// triangle id) and NewFlat (any r < s, by clique enumeration); Build picks
// between a family's flat and on-the-fly instance under a memory budget.
type Flat struct {
	r, s int
	// Cell c's s-cliques are members[offs[c]:offs[c+1]], coArity co-member
	// cell ids per s-clique.
	offs    []int64
	members []int32
	coArity int
	deg     []int32
	// verts appends a cell's vertices to buf. Flat holds no per-cell
	// vertex array of its own: edge endpoints come from the graph,
	// triangle vertices from the TriangleIndex, and only the enumerating
	// builder, which has no other home for them, keeps a clique list.
	verts func(c int32, buf []uint32) []uint32
}

// NewFlatTruss orients g, counts triangles per edge and materializes the
// flat (2,3) incidence, each in parallel over the given thread count.
// Panics if the graph has more than MaxInt32 edges.
func NewFlatTruss(g *graph.Graph, threads int) *Flat {
	o := cliques.OrientEdges(g, threads)
	return flatTruss(&Truss{G: g, deg: o.CountPerEdge(threads)}, o, threads)
}

// flatTruss stores t's incidence, enumerating over the orientation its
// degrees were counted on.
func flatTruss(t *Truss, o *cliques.OrientedEdges, threads int) *Flat {
	inc := cliques.BuildEdgeIncidence(o, t.deg, threads)
	return &Flat{r: 2, s: 3, offs: inc.Offs, members: inc.Pairs, coArity: 2, deg: t.deg, verts: t.CellVertices}
}

// NewFlatN34 indexes all triangles, counts 4-cliques per triangle and
// materializes the flat (3,4) incidence (cliques.BuildK4Incidence).
func NewFlatN34(g *graph.Graph, threads int) *Flat {
	return flatN34(newN34(g, threads), threads)
}

func flatN34(n *N34, threads int) *Flat {
	inc := cliques.BuildK4Incidence(n.G, n.Idx, n.deg, threads)
	return &Flat{r: 3, s: 4, offs: inc.Offs, members: inc.Triples, coArity: 3, deg: n.deg, verts: n.CellVertices}
}

// NewFlat enumerates the r-cliques and s-cliques of g (r < s) and builds
// their flat incidence. Both enumerations fan out across the given number
// of workers via the chunk-ordered parallel enumerator, which reproduces
// the sequential emission order — so dense cell ids are deterministic at
// every thread count: cell c is the c-th r-clique cliques.ForEachKClique
// emits. Enumeration keeps this builder practical for small-to-medium
// graphs only. Panics if r >= s or r < 1.
func NewFlat(g *graph.Graph, r, s, threads int) *Flat {
	if r < 1 || r >= s {
		panic(fmt.Sprintf("nucleus: invalid (r,s) = (%d,%d)", r, s))
	}
	if threads < 1 {
		threads = 1
	}
	f := &Flat{r: r, s: s, coArity: binom(s, r) - 1}

	// Enumerate and index the r-cliques; ids are positions in the flat list.
	cellVerts := cliques.KCliquesFlat(g, r, threads)
	f.verts = func(c int32, buf []uint32) []uint32 {
		return append(buf, cellVerts[int(c)*r:int(c+1)*r]...)
	}
	n := len(cellVerts) / r
	idOf := make(map[string]int32, n)
	for c := 0; c < n; c++ {
		idOf[cliqueKey(cellVerts[c*r:(c+1)*r])] = int32(c)
	}
	f.deg = make([]int32, n)

	// Pass 1: enumerate the s-cliques once, resolving each to its member
	// cell ids (groups of groupSize = coArity+1), and count s-degrees. The
	// map is read-only here, so resolution shards over the s-cliques.
	groupSize := f.coArity + 1
	sFlat := cliques.KCliquesFlat(g, s, threads)
	numS := len(sFlat) / s
	subs := make([][]uint32, threads)
	groups := par.Collect(numS, 256, threads, func(w, si int, buf []int32) []int32 {
		if subs[w] == nil {
			subs[w] = make([]uint32, r)
		}
		sub := subs[w]
		forEachSubset(sFlat[si*s:(si+1)*s], r, sub, func() {
			id, ok := idOf[cliqueKey(sub)]
			if !ok {
				panic("nucleus: s-clique subset missing from r-clique index")
			}
			buf = append(buf, id)
		})
		return buf
	})
	for _, id := range groups {
		f.deg[id]++
	}

	// Passes 2–3, shared with the (3,4) builder: slots in enumeration
	// order, so the arrays are byte-identical at every thread count.
	f.offs, f.members = cliques.ScatterGroups(groups, groupSize, f.deg, threads)
	return f
}

func (f *Flat) R() int        { return f.r }
func (f *Flat) S() int        { return f.s }
func (f *Flat) NumCells() int { return len(f.deg) }

func (f *Flat) Degrees() []int32 { return append([]int32(nil), f.deg...) }

func (f *Flat) VisitSCliques(c int32, fn func(others []int32) bool) {
	row := f.members[f.offs[c]:f.offs[c+1]]
	ca := f.coArity
	for i := 0; i+ca <= len(row); i += ca {
		if !fn(row[i : i+ca : i+ca]) {
			return
		}
	}
}

func (f *Flat) VisitNeighbors(c int32, fn func(int32) bool) {
	for _, d := range f.members[f.offs[c]:f.offs[c+1]] {
		if !fn(d) {
			return
		}
	}
}

func (f *Flat) CellVertices(c int32, buf []uint32) []uint32 { return f.verts(c, buf) }

func (f *Flat) CellLabel(c int32) string { return cellLabel(f.verts(c, nil)) }

func (f *Flat) Rows() Rows { return Rows{f.offs, f.members, f.coArity} }

// IndexBytes returns the memory held by the flat incidence arrays.
func (f *Flat) IndexBytes() int64 {
	return 8*int64(len(f.offs)) + 4*int64(len(f.members))
}

// cellLabel formats a cell's vertex set the way every instance labels it:
// e(u,v) for an edge, t(u,v,w) for a triangle, c[...] for any other clique.
func cellLabel(vs []uint32) string {
	switch len(vs) {
	case 2:
		return fmt.Sprintf("e(%d,%d)", vs[0], vs[1])
	case 3:
		return fmt.Sprintf("t(%d,%d,%d)", vs[0], vs[1], vs[2])
	}
	return fmt.Sprintf("c%v", vs)
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
