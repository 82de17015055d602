// Package hierarchy materializes the nucleus hierarchy (the "forest of
// nuclei") from a κ assignment: every k-(r,s) nucleus is an S-connected
// component of the cells with κ >= k, and nuclei nest — each (k+1)-nucleus
// is contained in exactly one k-nucleus. The forest is built bottom-up with
// a union-find over cells, activating cells in decreasing κ order, the way
// the traversal algorithms of the nucleus decomposition papers do.
//
// The forest is flat: a nucleus is a Node id, its attributes are parallel
// arrays, its cells one slice of a single permutation of all cells. Ids
// follow creation order — descending K, then ascending smallest own cell —
// so a child's id is below its parent's, and roots and siblings are always
// listed in that order: the forest, and every rendering of it, is a pure
// function of (instance, labelling).
//
// Typical use: decompose first, then Build the forest and walk it (Roots,
// Children, K, Subtree, NucleiAt) or export it —
//
//	forest := hierarchy.Build(inst, kappa)
//	forest.Print(os.Stdout, g, 10)       // text tree, nodes with >= 10 cells
//	forest.WriteJSON(os.Stdout, g)       // nested JSON with densities
//	forest.WriteDOT(os.Stdout, g, 10)    // GraphViz
package hierarchy

import (
	"fmt"
	"io"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// Node identifies one nucleus of a Forest.
type Node int32

// None is the parent of a root and the answer of a failed Find.
const None Node = -1

// Forest is the complete nucleus hierarchy of one decomposition. It is
// immutable once built; the exported slices must not be modified.
type Forest struct {
	// Inst is the instance the forest was built from.
	Inst nucleus.Instance
	// K is each nucleus' threshold: its own cells have κ == K, those of its
	// descendants more.
	K []int32
	// Parent is the nucleus directly containing each one, None for a root.
	Parent []Node

	// cells holds every cell once, in depth-first order of the forest: n's
	// nucleus is cells[first[n]:first[n]+sub[n]], its own cells the first own[n].
	cells           []int32
	first, own, sub []int32
	// nodeOf is the node holding each cell directly.
	nodeOf []Node
	// kids lists the children of node n at kidOffs[n+1]:kidOffs[n+2] — the
	// roots, None's, come first — each list in id order.
	kids    []Node
	kidOffs []int32
}

// find is union-find's, with path halving.
func find(uf []int32, x int32) int32 {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// Build constructs the nucleus forest from κ — or from any non-negative
// labelling, such as a budgeted τ. Cells are activated in decreasing κ
// order; cells sharing an s-clique whose members are all active merge, and
// every merge or first appearance at level k puts a node with K = k above
// the merged components. It panics with a "hierarchy:" message if
// len(kappa) is not the instance's cell count or a label is negative.
func Build(inst nucleus.Instance, kappa []int32) *Forest {
	n := inst.NumCells()
	if n != len(kappa) {
		panic("hierarchy: kappa length mismatch")
	}
	// Counting sort, descending κ and ascending cell id within a level.
	maxK := int32(0)
	for c, k := range kappa {
		if k < 0 {
			panic(fmt.Sprintf("hierarchy: negative kappa %d at cell %d", k, c))
		}
		maxK = max(maxK, k)
	}
	start := make([]int32, maxK+1)
	for _, k := range kappa {
		start[k]++
	}
	sum := int32(0)
	for k := maxK; k >= 0; k-- {
		start[k], sum = sum, sum+start[k]
	}
	order := make([]int32, n)
	for c, k := range kappa {
		order[start[k]] = int32(c)
		start[k]++
	}

	uf := make([]int32, n) // union-find parent, -1 until the cell is activated
	top := make([]Node, n) // at a union-find root, the node wrapping its component
	nodeOf := make([]Node, n)
	for c := range uf {
		uf[c], top[c] = -1, None
	}
	// Per node: its smallest own cell, and its Parent once known — until
	// then parent threads the list of nodes displaced at the current level.
	rep, parent, displaced := make([]int32, 0, n), make([]Node, 0, n), None

	// Stored rows are scanned in place; only an instance without them goes
	// through VisitSCliques. Either way cur, the cell being activated,
	// merges only through s-cliques whose members are all active
	// (S-connectedness); one with a member still to come is processed when
	// its last one activates.
	rows, stored := nucleus.RowsOf(inst)
	co := rows.Co
	var cur int32
	visit := func(others []int32) bool {
		for _, d := range others {
			if uf[d] < 0 {
				return true
			}
		}
		for _, d := range others {
			// cur stays the root of everything it merges, so it needs no
			// find and wraps no node; the node that wrapped d's component
			// is displaced, to hang under the one the level's close creates.
			if r := find(uf, d); r != cur {
				if t := top[r]; t != None {
					parent[t], displaced = displaced, t
				}
				uf[r] = cur
			}
		}
		return true
	}

	for k, lo := maxK, int32(0); k >= 0; k-- {
		level := order[lo:start[k]] // start[k] has moved to the level's end
		lo = start[k]
		for _, c := range level {
			uf[c], cur = c, c
			if !stored {
				inst.VisitSCliques(c, visit)
				continue
			}
			for row := rows.Row(c); len(row) >= co; row = row[co:] {
				visit(row[:co])
			}
		}

		// Close the level: every component that gained a cell gets a node,
		// created at its smallest level-k cell; the displaced hang under it.
		for _, c := range level {
			r := find(uf, c)
			if top[r] == None {
				top[r] = Node(len(rep))
				rep, parent = append(rep, c), append(parent, None)
			}
			nodeOf[c] = top[r]
		}
		for displaced != None {
			d := displaced
			displaced, parent[d] = parent[d], top[find(uf, rep[d])]
		}
	}

	// Children come first, so subtree sizes are one ascending loop; the child
	// lists (the roots' is None's) are a counting sort in id order.
	nn := len(rep)
	f := &Forest{
		Inst:    inst,
		K:       make([]int32, nn),
		Parent:  append([]Node(nil), parent...),
		cells:   order, // every level is consumed: reused as the permutation
		first:   make([]int32, nn),
		own:     make([]int32, nn),
		sub:     make([]int32, nn),
		nodeOf:  nodeOf,
		kids:    make([]Node, nn),
		kidOffs: make([]int32, nn+2),
	}
	for id, c := range rep {
		f.K[id] = kappa[c]
	}
	for _, id := range nodeOf {
		f.own[id]++
	}
	copy(f.sub, f.own)
	for id, p := range f.Parent {
		if p != None {
			f.sub[p] += f.sub[id]
		}
		f.kidOffs[p+2]++
	}
	for s := 2; s < len(f.kidOffs); s++ {
		f.kidOffs[s] += f.kidOffs[s-1]
	}
	for id, p := range f.Parent { // kidOffs[p+1] runs from p's first slot to its end
		f.kids[f.kidOffs[p+1]] = Node(id)
		f.kidOffs[p+1]++
	}
	copy(f.kidOffs[1:], f.kidOffs)
	f.kidOffs[0] = 0

	// Going down, each nucleus' span in depth-first order, its own cells
	// first; then the cells, ascending, into their nodes' spans.
	place := func(n Node, at int32) {
		for _, ch := range f.Children(n) {
			f.first[ch], at = at, at+f.sub[ch]
		}
	}
	place(None, 0)
	for id := nn - 1; id >= 0; id-- {
		place(Node(id), f.first[id]+f.own[id])
	}
	clear(f.own) // counted back up as each node's cursor
	for c, id := range nodeOf {
		f.cells[f.first[id]+f.own[id]] = int32(c)
		f.own[id]++
	}
	return f
}

// NumNodes returns the number of nuclei in the forest.
func (f *Forest) NumNodes() int { return len(f.K) }

// Roots returns the nuclei contained in no other, in id order.
func (f *Forest) Roots() []Node { return f.Children(None) }

// Children returns the nuclei directly nested in n, in id order.
func (f *Forest) Children(n Node) []Node { return f.kids[f.kidOffs[n+1]:f.kidOffs[n+2]] }

// Cells returns the cells of nucleus n whose κ equals K[n], ascending.
func (f *Forest) Cells(n Node) []int32 { return f.cells[f.first[n] : f.first[n]+f.own[n]] }

// Subtree returns every cell of nucleus n: its own, then its descendants'.
func (f *Forest) Subtree(n Node) []int32 { return f.cells[f.first[n] : f.first[n]+f.sub[n]] }

// SubtreeCells returns the total number of cells in nucleus n.
func (f *Forest) SubtreeCells(n Node) int { return int(f.sub[n]) }

// Find returns the deepest nucleus containing the given cell, or None.
func (f *Forest) Find(cell int32) Node {
	if cell < 0 || int(cell) >= len(f.nodeOf) {
		return None
	}
	return f.nodeOf[cell]
}

// Vertices returns the distinct graph vertices of nucleus n, ascending.
func (f *Forest) Vertices(n Node) []uint32 { return CellsToVertices(f.Inst, f.Subtree(n)) }

// Stats holds, per node, the number of distinct vertices of its nucleus and
// of graph edges they induce (nil when measured without a graph).
type Stats struct {
	Vertices []int32
	Edges    []int64
}

// Density returns the edge density 2|E'|/(|V'|(|V'|-1)) of the subgraph
// induced by nucleus n, 0 without a graph or below two vertices.
func (s Stats) Density(n Node) float64 {
	nv := float64(s.Vertices[n])
	if s.Edges == nil || nv < 2 {
		return 0
	}
	return 2 * float64(s.Edges[n]) / (nv * (nv - 1))
}

// Stats measures every nucleus; g is the instance's graph, or nil to count
// vertices only. For k-core, sibling nuclei share no vertex and no edge
// crosses them, so each edge is counted once, at the nucleus of its lower-κ
// endpoint, and summed upwards: O(m). Other families' nuclei overlap in
// vertices, so each is walked with one stamp array.
func (f *Forest) Stats(g *graph.Graph) Stats {
	st := Stats{Vertices: f.sub}
	if g != nil {
		st.Edges = make([]int64, len(f.K))
	}
	if _, core := f.Inst.(*nucleus.Core); core {
		if g == nil {
			return st
		}
		for u, nu := range f.nodeOf {
			ku := f.K[nu]
			for _, v := range g.Neighbors(uint32(u)) {
				if kv := f.K[f.nodeOf[v]]; kv > ku || kv == ku && v > uint32(u) {
					st.Edges[nu]++
				}
			}
		}
		for id, p := range f.Parent {
			if p != None {
				st.Edges[p] += st.Edges[id]
			}
		}
		return st
	}

	st.Vertices = make([]int32, len(f.K))
	var buf, vs []uint32
	var stamp []Node // stamp[v] == n+1: v is in nucleus n
	if g != nil {
		stamp = make([]Node, g.N())
	}
	for id := range f.K {
		mark := Node(id) + 1
		vs = vs[:0]
		for _, c := range f.Subtree(Node(id)) {
			buf = f.Inst.CellVertices(c, buf[:0])
			for _, v := range buf {
				if int(v) >= len(stamp) {
					stamp = append(stamp, make([]Node, int(v)+1-len(stamp))...)
				}
				if stamp[v] != mark {
					stamp[v] = mark
					vs = append(vs, v)
				}
			}
		}
		st.Vertices[id] = int32(len(vs))
		if g == nil {
			continue
		}
		for _, u := range vs {
			for _, v := range g.Neighbors(u) {
				if v > u && stamp[v] == mark {
					st.Edges[id]++
				}
			}
		}
	}
	return st
}

// walk visits, parents first, every nucleus of at least minSize cells.
func (f *Forest) walk(minSize int, visit func(n Node, depth int)) {
	var rec func(ns []Node, depth int)
	rec = func(ns []Node, depth int) {
		for _, n := range ns {
			if f.SubtreeCells(n) >= minSize {
				visit(n, depth)
				rec(f.Children(n), depth+1)
			}
		}
	}
	rec(f.Roots(), 0)
}

// Print writes an indented rendering of the forest, largest K first within
// each sibling group, eliding nodes below minSize cells.
func (f *Forest) Print(w io.Writer, g *graph.Graph, minSize int) {
	st := f.Stats(g)
	f.walk(minSize, func(n Node, depth int) {
		fmt.Fprintf(w, "%*sk=%d cells=%d vertices=%d density=%.3f\n",
			2*depth, "", f.K[n], f.SubtreeCells(n), st.Vertices[n], st.Density(n))
	})
}
