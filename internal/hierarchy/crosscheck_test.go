package hierarchy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestForestMatchesComponentsAtEveryLevel cross-validates the union-find
// hierarchy against an independent per-level component computation: for
// every threshold k, grouping the forest's cells by their highest ancestor
// node with K >= k must reproduce exactly the S-connected components of
// {cells : κ >= k}.
func TestForestMatchesComponentsAtEveryLevel(t *testing.T) {
	check := func(g *graph.Graph, inst nucleus.Instance) bool {
		kappa := peel.Run(inst).Kappa
		f := Build(inst, kappa)
		maxK := int32(0)
		for _, k := range kappa {
			if k > maxK {
				maxK = k
			}
		}
		// cellGroup[k][cell] = the subtree id of cell at threshold k.
		for k := int32(0); k <= maxK; k++ {
			want := peelComponents(inst, kappa, k)
			got := forestGroups(f, k, inst.NumCells())
			if !samePartition(want, got) {
				return false
			}
		}
		return true
	}
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%22) + 3
		m := int(mRaw%90) + 1
		if maxM := n * (n - 1) / 2; m > maxM {
			m = maxM
		}
		g := graph.GnM(n, m, seed)
		return check(g, nucleus.NewCore(g)) && check(g, nucleus.NewTruss(g))
	}, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(23))})
	if err != nil {
		t.Fatal(err)
	}
}

// peelComponents labels cells with κ >= k by S-connected component
// (independent reference implementation); cells below k get -1.
func peelComponents(inst nucleus.Instance, kappa []int32, k int32) []int32 {
	n := inst.NumCells()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	next := int32(0)
	for s := int32(0); s < int32(n); s++ {
		if kappa[s] < k || comp[s] >= 0 {
			continue
		}
		comp[s] = next
		stack := []int32{s}
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			inst.VisitSCliques(c, func(others []int32) bool {
				for _, d := range others {
					if kappa[d] < k {
						return true
					}
				}
				for _, d := range others {
					if comp[d] < 0 {
						comp[d] = next
						stack = append(stack, d)
					}
				}
				return true
			})
		}
		next++
	}
	return comp
}

// forestGroups labels each cell with the id of its highest forest ancestor
// having K >= k; cells whose κ < k get -1.
func forestGroups(f *Forest, k int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = -1
	}
	next := int32(0)
	var assign func(nd Node, group int32)
	assign = func(nd Node, group int32) {
		for _, c := range f.Cells(nd) {
			out[c] = group
		}
		for _, ch := range f.Children(nd) {
			assign(ch, group)
		}
	}
	var walk func(nd Node)
	walk = func(nd Node) {
		if f.K[nd] >= k {
			assign(nd, next)
			next++
			return
		}
		for _, ch := range f.Children(nd) {
			walk(ch)
		}
	}
	for _, r := range f.Roots() {
		walk(r)
	}
	return out
}

// samePartition checks two labelings induce the same partition (labels may
// differ; -1 must match exactly).
func samePartition(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[int32]int32)
	bwd := make(map[int32]int32)
	for i := range a {
		if (a[i] < 0) != (b[i] < 0) {
			return false
		}
		if a[i] < 0 {
			continue
		}
		if m, ok := fwd[a[i]]; ok {
			if m != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if m, ok := bwd[b[i]]; ok {
			if m != a[i] {
				return false
			}
		} else {
			bwd[b[i]] = a[i]
		}
	}
	return true
}
