package hierarchy

import (
	"encoding/json"
	"io"

	"nucleus/internal/graph"
)

// jsonNode is the serialized form of one nucleus.
type jsonNode struct {
	K        int32      `json:"k"`
	Cells    int        `json:"cells"`
	Vertices int32      `json:"vertices"`
	Density  float64    `json:"density,omitempty"`
	Children []jsonNode `json:"children,omitempty"`
}

// WriteJSON serializes the forest as nested JSON, roots and children in id
// order. When g is non-nil, each node also carries the density of its
// induced subgraph.
func (f *Forest) WriteJSON(w io.Writer, g *graph.Graph) error {
	st := f.Stats(g)
	nodes := make([]jsonNode, len(f.K))
	nest := func(ids []Node) []jsonNode {
		out := make([]jsonNode, len(ids))
		for i, n := range ids {
			out[i] = nodes[n]
		}
		return out
	}
	for id := range nodes { // children have lower ids: they are complete
		n := Node(id)
		nodes[id] = jsonNode{
			K:        f.K[n],
			Cells:    f.SubtreeCells(n),
			Vertices: st.Vertices[n],
			Density:  st.Density(n),
			Children: nest(f.Children(n)),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(nest(f.Roots()))
}

// Subgraph extracts the subgraph of g induced by the vertices of nucleus
// n, along with the old→new vertex mapping.
func (f *Forest) Subgraph(g *graph.Graph, n Node) (*graph.Graph, []int32) {
	return g.InducedSubgraph(f.Vertices(n))
}

// NodesAtLevel returns every nucleus with exactly the given K, in id order.
func (f *Forest) NodesAtLevel(k int32) []Node {
	var out []Node
	for id, nk := range f.K {
		if nk == k {
			out = append(out, Node(id))
		}
	}
	return out
}

// Leaves returns the maximal-K nuclei (nodes without children), in id
// order: the densest discovered subgraphs.
func (f *Forest) Leaves() []Node {
	var out []Node
	for id := range f.K {
		if len(f.Children(Node(id))) == 0 {
			out = append(out, Node(id))
		}
	}
	return out
}
