package nucleus_test

import (
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

func TestCellVerticesAllInstances(t *testing.T) {
	g := graph.Complete(5)
	wantLens := map[string]int{}
	for _, tc := range []struct {
		inst nucleus.Instance
		want int
	}{
		{nucleus.NewCore(g), 1},
		{nucleus.NewTruss(g), 2},
		{nucleus.NewN34(g), 3},
		{nucleustest.NewHyper(g, 4, 5), 4},
		{nucleus.NewFlatTruss(g, 1), 2},
		{nucleus.NewFlatN34(g, 1), 3},
		{nucleus.NewFlat(g, 4, 5, 1), 4},
	} {
		vs := tc.inst.CellVertices(0, nil)
		if len(vs) != tc.want {
			t.Errorf("(%d,%d): %d vertices, want %d", tc.inst.R(), tc.inst.S(), len(vs), tc.want)
		}
		// Buffer reuse appends.
		buf := []uint32{99}
		vs2 := tc.inst.CellVertices(0, buf)
		if len(vs2) != tc.want+1 || vs2[0] != 99 {
			t.Errorf("(%d,%d): buffer not appended", tc.inst.R(), tc.inst.S())
		}
		_ = wantLens
	}
}

func TestHyperDisconnectedSmallS(t *testing.T) {
	// A graph with no s-cliques at all: every cell has degree 0.
	g := graph.Path(6)
	h := nucleustest.NewHyper(g, 2, 3) // edges as cells, triangles as s-cliques: none
	if h.NumCells() != 5 {
		t.Fatalf("cells = %d", h.NumCells())
	}
	for _, d := range h.Degrees() {
		if d != 0 {
			t.Fatalf("degrees = %v", h.Degrees())
		}
	}
	if groups := nucleustest.Groups(h, 0); len(groups) != 0 {
		t.Fatalf("s-cliques %v in a triangle-free graph", groups)
	}
}

func TestCoreDegreesCopied(t *testing.T) {
	g := graph.Complete(4)
	for _, inst := range []nucleus.Instance{nucleus.NewTruss(g), nucleus.NewN34(g), nucleustest.NewHyper(g, 1, 2), nucleus.NewFlatTruss(g, 1), nucleus.NewFlat(g, 1, 2, 1)} {
		d1 := inst.Degrees()
		orig := d1[0]
		d1[0] = 77
		if inst.Degrees()[0] != orig {
			t.Fatalf("(%d,%d): Degrees aliased", inst.R(), inst.S())
		}
	}
}
