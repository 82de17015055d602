package hierarchy

import (
	"fmt"

	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

// refBuild is the builder Build replaced, verbatim but for its name: the
// cell being activated becomes the root of every component it touches
// (cur-as-root linking), so it needs no find of its own. Build must return
// a Forest equal to refBuild's field for field (checkForest).
func refBuild(inst nucleus.Instance, kappa []int32) *Forest {
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

	// The rows are read one s-clique at a time (nucleustest.Groups): cur,
	// the cell being activated, merges only through s-cliques whose members
	// are all active (S-connectedness); one with a member still to come is
	// processed when its last one activates.
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
			for _, others := range nucleustest.Groups(inst, c) {
				visit(others)
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
