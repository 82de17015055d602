package hierarchy

import (
	"fmt"
	"io"

	"nucleus/internal/graph"
)

// WriteDOT renders the forest in GraphViz DOT format: one box per nucleus
// labeled with its threshold, cell count and (when g is non-nil) density,
// edges pointing from parent to child. Nodes smaller than minSize cells
// are elided.
func (f *Forest) WriteDOT(w io.Writer, g *graph.Graph, minSize int) error {
	if _, err := fmt.Fprintln(w, "digraph nuclei {"); err != nil {
		return err
	}
	fmt.Fprintln(w, `  node [shape=box, fontname="Helvetica"];`)
	st := f.Stats(g)
	f.walk(minSize, func(n Node, depth int) {
		label := fmt.Sprintf("k=%d\\ncells=%d", f.K[n], f.SubtreeCells(n))
		if g != nil {
			label += fmt.Sprintf("\\ndensity=%.2f", st.Density(n))
		}
		fmt.Fprintf(w, "  n%d [label=\"%s\"];\n", n, label)
		if depth > 0 {
			fmt.Fprintf(w, "  n%d -> n%d;\n", f.Parent[n], n)
		}
	})
	_, err := fmt.Fprintln(w, "}")
	return err
}
