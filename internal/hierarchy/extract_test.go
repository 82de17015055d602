package hierarchy

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

func TestMaxNucleusOfFigure2(t *testing.T) {
	g := graph.Figure2()
	inst := nucleus.NewCore(g)
	kappa := peel.Run(inst).Kappa // {1,2,2,2,1,1}
	// Max core of b (κ=2): the triangle {b,c,d}.
	got := MaxNucleusOf(inst, kappa, 1)
	want := []int32{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("max core of b = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("max core of b = %v, want %v", got, want)
		}
	}
	// Max core of a (κ=1): the whole connected graph.
	if got := MaxNucleusOf(inst, kappa, 0); len(got) != 6 {
		t.Fatalf("max core of a = %v", got)
	}
}

func TestMaxNucleusOfTruss(t *testing.T) {
	g := graph.Nucleus34Toy()
	inst := nucleus.NewTruss(g)
	kappa := peel.Run(inst).Kappa
	// Max truss of edge ef (κ=3): the 10 edges of the K5 block.
	ef, _ := g.EdgeID(4, 5)
	cells := MaxNucleusOf(inst, kappa, int32(ef))
	if len(cells) != 10 {
		t.Fatalf("max truss of ef has %d edges, want 10", len(cells))
	}
	vs := CellsToVertices(inst, cells)
	want := []uint32{2, 3, 4, 5, 7}
	if len(vs) != len(want) {
		t.Fatalf("vertices = %v", vs)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("vertices = %v, want %v", vs, want)
		}
	}
}

// TestMaxNucleusInvariants: every cell in the max nucleus has κ >= the
// seed's κ, and the set is exactly one of the k-nucleus components.
func TestMaxNucleusInvariants(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, mRaw, cellRaw uint8) bool {
		n := int(nRaw%25) + 4
		m := int(mRaw%100) + 1
		if maxM := n * (n - 1) / 2; m > maxM {
			m = maxM
		}
		g := graph.GnM(n, m, seed)
		inst := nucleus.NewCore(g)
		kappa := peel.Run(inst).Kappa
		cell := int32(int(cellRaw) % n)
		got := MaxNucleusOf(inst, kappa, cell)
		k := kappa[cell]
		for _, c := range got {
			if kappa[c] < k {
				return false
			}
		}
		// It must coincide with the k-nucleus component containing cell: by
		// the independent reference, and as KNucleusSubgraphs lists it.
		ref := peelComponents(inst, kappa, k)
		var want []int32
		for c, id := range ref {
			if id == ref[cell] {
				want = append(want, int32(c))
			}
		}
		if !slices.Equal(got, want) {
			return false
		}
		for _, comp := range KNucleusSubgraphs(inst, kappa, k) {
			for _, c := range comp {
				if c == cell {
					if len(comp) != len(got) {
						return false
					}
					for i := range comp {
						if comp[i] != got[i] {
							return false
						}
					}
					return true
				}
			}
		}
		return false
	}, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(22))})
	if err != nil {
		t.Fatal(err)
	}
}

func TestKNucleusSubgraphs(t *testing.T) {
	// Two K4s joined through a degree-2 bridge vertex (κ=2): the whole
	// graph is one 2-core, but there are two separate 3-cores.
	g := graph.Build(9, [][2]uint32{
		{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
		{4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7},
		{3, 8}, {8, 4},
	})
	inst := nucleus.NewCore(g)
	kappa := peel.Run(inst).Kappa
	if kappa[8] != 2 {
		t.Fatalf("bridge κ = %d, want 2", kappa[8])
	}
	threes := KNucleusSubgraphs(inst, kappa, 3)
	if len(threes) != 2 {
		t.Fatalf("3-cores = %d, want 2", len(threes))
	}
	for _, c := range threes {
		if len(c) != 4 {
			t.Fatalf("3-core size = %d, want 4", len(c))
		}
	}
	twos := KNucleusSubgraphs(inst, kappa, 2)
	if len(twos) != 1 || len(twos[0]) != 9 {
		t.Fatalf("2-cores = %v", twos)
	}
	if got := KNucleusSubgraphs(inst, kappa, 99); len(got) != 0 {
		t.Fatalf("99-cores = %v", got)
	}
}

func TestKCoreSubgraph(t *testing.T) {
	g := graph.Figure2()
	kappa := peel.Run(nucleus.NewCore(g)).Kappa
	sub, remap := KCoreSubgraph(g, kappa, 2)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("2-core subgraph: n=%d m=%d", sub.N(), sub.M())
	}
	if remap[0] != -1 || remap[1] < 0 {
		t.Fatalf("remap = %v", remap)
	}
}
