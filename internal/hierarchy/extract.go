package hierarchy

import (
	"slices"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// MaxNucleusOf returns the cells, ascending, of the maximum nucleus of the
// given cell: the maximal S-connected set of cells with κ >= κ(cell) around
// it (§2 of the paper, "maximum core of a vertex", generalized to any
// instance) — the subtree of the node holding the cell in the forest of κ.
func MaxNucleusOf(inst nucleus.Instance, kappa []int32, cell int32) []int32 {
	f := Build(inst, kappa)
	return f.sortedCells(f.Find(cell))
}

// sortedCells returns a copy of nucleus n's cells, ascending.
func (f *Forest) sortedCells(n Node) []int32 {
	cells := slices.Clone(f.Subtree(n))
	slices.Sort(cells)
	return cells
}

// NucleiAt returns the k-(r,s) nuclei, the S-connected components of the
// cells with κ >= k: the nodes with K >= k whose parent's is below, in id order.
func (f *Forest) NucleiAt(k int32) []Node {
	var out []Node
	for id, p := range f.Parent {
		if f.K[id] >= k && (p == None || f.K[p] < k) {
			out = append(out, Node(id))
		}
	}
	return out
}

// KNucleusSubgraphs returns the cell sets, each ascending, of all k-(r,s)
// nuclei for the given threshold k: NucleiAt on the forest of κ.
func KNucleusSubgraphs(inst nucleus.Instance, kappa []int32, k int32) [][]int32 {
	f := Build(inst, kappa)
	var groups [][]int32
	for _, n := range f.NucleiAt(k) {
		groups = append(groups, f.sortedCells(n))
	}
	return groups
}

// CellsToVertices maps a cell set to its sorted distinct vertex set.
func CellsToVertices(inst nucleus.Instance, cells []int32) []uint32 {
	out := make([]uint32, 0, len(cells)*inst.R())
	for _, c := range cells {
		out = inst.CellVertices(c, out)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// KCoreSubgraph extracts the induced subgraph of the classic k-core: all
// vertices with core number >= k. kappa must be the (1,2) decomposition.
func KCoreSubgraph(g *graph.Graph, kappa []int32, k int32) (*graph.Graph, []int32) {
	var vs []uint32
	for v, kv := range kappa {
		if kv >= k {
			vs = append(vs, uint32(v))
		}
	}
	return g.InducedSubgraph(vs)
}
