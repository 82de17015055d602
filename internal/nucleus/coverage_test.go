package nucleus

import (
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleustest"
)

// Exercise the early-stop paths of every instance's visitors.

func TestEarlyStopAllInstances(t *testing.T) {
	g := graph.Complete(6)
	for _, inst := range []Instance{NewCore(g), NewTruss(g), NewN34(g), nucleustest.NewHyper(g, 2, 3), NewFlatTruss(g, 1), NewFlatN34(g, 1), NewFlat(g, 2, 4, 1)} {
		count := 0
		inst.VisitSCliques(0, func([]int32) bool {
			count++
			return false
		})
		if count != 1 {
			t.Errorf("(%d,%d): VisitSCliques early stop visited %d", inst.R(), inst.S(), count)
		}
	}
}

func TestCellVerticesAllInstances(t *testing.T) {
	g := graph.Complete(5)
	wantLens := map[string]int{}
	for _, tc := range []struct {
		inst Instance
		want int
	}{
		{NewCore(g), 1},
		{NewTruss(g), 2},
		{NewN34(g), 3},
		{nucleustest.NewHyper(g, 4, 5), 4},
		{NewFlatTruss(g, 1), 2},
		{NewFlatN34(g, 1), 3},
		{NewFlat(g, 4, 5, 1), 4},
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
	h.VisitSCliques(0, func([]int32) bool {
		t.Fatal("visited s-clique in triangle-free graph")
		return false
	})
}

func TestCoreDegreesCopied(t *testing.T) {
	g := graph.Complete(4)
	for _, inst := range []Instance{NewTruss(g), NewN34(g), nucleustest.NewHyper(g, 1, 2), NewFlatTruss(g, 1), NewFlat(g, 1, 2, 1)} {
		d1 := inst.Degrees()
		orig := d1[0]
		d1[0] = 77
		if inst.Degrees()[0] != orig {
			t.Fatalf("(%d,%d): Degrees aliased", inst.R(), inst.S())
		}
	}
}
