package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nucleus/internal/graph"
)

// The reference repair: the full-subcore traversal the pruned one replaced
// (Sarıyüce et al., VLDB 2013), on a fresh map per edit. It visits every
// vertex with κ = k connected to the edge through κ = k vertices, counts
// each one's neighbors with κ >= k, and sheds from that whole set.

// refInsertEdge is InsertEdge with the reference repair.
func refInsertEdge(g *Graph, u, v uint32) bool {
	if u == v || g.HasEdge(u, v) {
		return false
	}
	g.Grow(int(max(u, v)) + 1)
	g.setAdj(u, v, true)
	g.setAdj(v, u, true)
	g.edges++
	k, cd := refCandidates(g, u, v)
	refShed(g, cd, k+1)
	for x := range cd {
		g.kappa[x]++
	}
	return true
}

// refRemoveEdge is RemoveEdge with the reference repair.
func refRemoveEdge(g *Graph, u, v uint32) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	g.setAdj(u, v, false)
	g.setAdj(v, u, false)
	g.edges--
	k, cd := refCandidates(g, u, v)
	for _, x := range refShed(g, cd, k) {
		g.kappa[x] = k - 1
	}
	return true
}

// refCandidates returns k = min(κ(u), κ(v)) and the subcore of {u,v}, each
// vertex with its count of neighbors with κ >= k.
func refCandidates(g *Graph, u, v uint32) (k int32, cd map[uint32]int32) {
	k = min(g.kappa[u], g.kappa[v])
	cd = make(map[uint32]int32)
	var stack []uint32
	for _, r := range [2]uint32{u, v} {
		if g.kappa[r] == k {
			cd[r] = 0
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var c int32
		for _, w := range g.row(x) {
			if g.kappa[w] < k {
				continue
			}
			c++
			if _, seen := cd[w]; g.kappa[w] == k && !seen {
				cd[w] = 0
				stack = append(stack, w)
			}
		}
		cd[x] = c
	}
	return k, cd
}

// refShed removes from the candidates, cascading, every vertex left with
// fewer than need counted neighbors and returns the removed; the survivors
// stay in cd.
func refShed(g *Graph, cd map[uint32]int32, need int32) (gone []uint32) {
	for x, c := range cd {
		if c < need {
			gone = append(gone, x)
			delete(cd, x)
		}
	}
	for i := 0; i < len(gone); i++ {
		for _, w := range g.row(gone[i]) {
			switch c, in := cd[w]; {
			case !in:
			case c > need:
				cd[w] = c - 1
			default:
				gone = append(gone, w)
				delete(cd, w)
			}
		}
	}
	return gone
}

// matchRef applies to ref the edit that d answered got to, and holds the
// reference to the same answer and the same κ.
func matchRef(t *testing.T, d, ref *Graph, add bool, u, v uint32, got bool) {
	t.Helper()
	var want bool
	if add {
		want = refInsertEdge(ref, u, v)
	} else {
		want = refRemoveEdge(ref, u, v)
	}
	if got != want {
		t.Fatalf("edit add=%v {%d,%d}: repair says %v, reference %v", add, u, v, got, want)
	}
	for x, k := range ref.CoreNumbers() {
		if d.CoreNumber(uint32(x)) != k {
			t.Fatalf("after edit add=%v {%d,%d}: κ(%d) = %d, reference %d", add, u, v, x, d.CoreNumber(uint32(x)), k)
		}
	}
}

// TestRepairMatchesSubcoreReference: mixed edit scripts on hub-heavy,
// clustered and community graphs leave the pruned repair's κ equal to the
// reference after every edit, and to a cold peel every 100 edits. Half the
// inserts join endpoints of existing edges, so they land degree-
// proportionally in the dense subcores; the rest are uniform.
func TestRepairMatchesSubcoreReference(t *testing.T) {
	edits := 2000
	if testing.Short() {
		edits = 500
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat10", graph.RMAT(10, 8, 0.57, 0.19, 0.19, 1)},
		{"rmat11", graph.RMAT(11, 6, 0.57, 0.19, 0.19, 2)},
		{"rmat12", graph.RMAT(12, 4, 0.57, 0.19, 0.19, 3)},
		{"powerlaw", graph.PowerLawCluster(2000, 5, 0.5, 4)},
		{"planted", graph.PlantedCommunities(20, 40, 0.3, 400, 5)},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.g.N())))
			d, ref := FromStatic(c.g), FromStatic(c.g)
			m := newModel(c.g.N())
			present := slices.Clone(c.g.Edges())
			for _, e := range present {
				m.insert(e[0], e[1])
			}
			n := c.g.N()
			for i := 1; i <= edits; i++ {
				if rng.Intn(2) == 0 && len(present) > 0 {
					j := rng.Intn(len(present))
					e := present[j]
					present[j] = present[len(present)-1]
					present = present[:len(present)-1]
					matchRef(t, d, ref, false, e[0], e[1], m.edit(t, d, false, e[0], e[1]))
				} else {
					u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
					if rng.Intn(2) == 0 && len(present) > 0 {
						u = present[rng.Intn(len(present))][rng.Intn(2)]
						v = present[rng.Intn(len(present))][rng.Intn(2)]
					}
					ok := m.edit(t, d, true, u, v)
					matchRef(t, d, ref, true, u, v, ok)
					if ok {
						present = append(present, [2]uint32{u, v})
					}
				}
				if i%100 == 0 {
					m.check(t, d, fmt.Sprintf("edit %d", i))
				}
			}
		})
	}
}
