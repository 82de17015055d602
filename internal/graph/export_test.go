package graph

import "unsafe"

// NumberedIDs returns the address of g's edge-id table, nil while the edges
// have not been numbered: tests of other packages' pipelines use it to see
// whether — and, the address staying put, how often — a graph was numbered.
// It does not number them.
func NumberedIDs(g *Graph) *int64 {
	if g.eid == nil {
		return nil
	}
	return unsafe.SliceData(g.eid)
}
