// Package peel implements the paper's Algorithm 1, the global peeling
// baseline the local algorithms are compared with: exact κ indices for any
// (r,s) nucleus instance, generalizing Batagelj–Zaversnik k-core peeling
// and the k-truss peeling of Cohen. It also computes the degree levels of
// Definition 7, whose count upper-bounds the iteration count of the local
// algorithms (Theorem 3). Run, the one engine, and Levels work on
// Batagelj–Zaversnik's in-place arrays over the instance's rows, stored or
// discovered (nucleus.Rows). The peel is sequential: the local algorithms
// are the parallel ones.
package peel

import "nucleus/internal/nucleus"

// Result carries the exact decomposition produced by Run.
type Result struct {
	// Kappa[c] is the κ index of cell c.
	Kappa []int32
	// Order lists cells in the order they were peeled: each had minimum
	// clamped s-degree among those still present, so κ never decreases along
	// it. It is a pure function of the instance's degrees and rows.
	Order []int32
	// MaxKappa is the largest κ index (the degeneracy of the instance).
	MaxKappa int32
}

// sortByDegree builds Batagelj–Zaversnik's bucket arrays for deg: vert holds
// the cells by non-decreasing degree (ties by id), pos[vert[i]] == i, and
// bin[d] is the position of the first cell of degree >= d among those not
// yet taken off the front (len(bin) is the largest degree + 2). Lowering a
// degree by one is then a swap with the first cell of its bin, and the
// cells come off the front of vert in peeling order.
func sortByDegree(deg []int32) (vert, pos, bin []int32) {
	top := int32(0)
	for _, d := range deg {
		top = max(top, d)
	}
	vert, pos, bin = make([]int32, len(deg)), make([]int32, len(deg)), make([]int32, top+2)
	for _, d := range deg {
		bin[d+1]++
	}
	for d := int32(1); d <= top; d++ {
		bin[d+1] += bin[d]
	}
	for c, d := range deg { // bin[d] runs from its bin's first slot to its end
		pos[c] = bin[d]
		vert[bin[d]] = int32(c)
		bin[d]++
	}
	copy(bin[1:], bin)
	bin[0] = 0
	return vert, pos, bin
}

// lower decrements the degree of cell u, which sits behind the front: u
// swaps with the first cell of its bin and the bin's start moves past it.
func lower(deg, vert, pos, bin []int32, u int32) {
	du, pu := deg[u], pos[u]
	pw := bin[du]
	if w := vert[pw]; w != u {
		vert[pu], pos[w] = w, pu
		vert[pw], pos[u] = u, pw
	}
	bin[du] = pw + 1
	deg[u] = du - 1
}

// Run peels the instance: repeatedly take a cell of minimum current
// s-degree — that degree is its κ — and decrement the co-members of its
// still-intact s-cliques, never below the κ just assigned.
func Run(inst nucleus.Instance) *Result {
	deg := inst.Degrees()
	vert, pos, bin := sortByDegree(deg)
	peelRows(deg, vert, pos, bin, inst.Rows())
	// The clamp leaves every cell at the degree it was taken at.
	res := &Result{Kappa: deg, Order: vert}
	if n := len(vert); n > 0 {
		res.MaxKappa = deg[vert[n-1]]
	}
	return res
}

// peelRows is the peel over the instance's rows. The cell at position i goes at
// k = its degree. An s-clique is intact iff no member sits before i; at
// co-arity 1 the clamp is that test, since a cell already gone kept its
// κ <= k — so k-core is the textbook loop.
func peelRows(deg, vert, pos, bin []int32, rows nucleus.Rows) {
	co := rows.Co
	var buf []int32
	for i := int32(0); int(i) < len(vert); i++ {
		c := vert[i]
		k, row := deg[c], rows.Row(c, &buf)
		if co == 1 {
			for _, d := range row {
				if deg[d] > k {
					lower(deg, vert, pos, bin, d)
				}
			}
			continue
		}
	scliques:
		for ; len(row) >= co; row = row[co:] {
			for _, d := range row[:co] {
				if pos[d] < i {
					continue scliques
				}
			}
			for _, d := range row[:co] {
				if deg[d] > k {
					lower(deg, vert, pos, bin, d)
				}
			}
		}
	}
}

// RunThreads is Run, for callers that hold a thread count: the peel is
// sequential at every one.
func RunThreads(inst nucleus.Instance, _ int) *Result { return Run(inst) }
