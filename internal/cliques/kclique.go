package cliques

import (
	"slices"

	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// kcliqueEnum is the shared read-only state of a k-clique enumeration: the
// oriented CSR over the degeneracy rank, which bounds every row by the
// degeneracy. Roots are independent given this state, which is what lets
// KCliquesFlat fan the recursion out across threads.
type kcliqueEnum struct {
	k int
	oriented
}

func newKCliqueEnum(g *graph.Graph, k, threads int) *kcliqueEnum {
	rank, _ := g.DegeneracyOrder()
	return &kcliqueEnum{k: k, oriented: orient(g, rank, false, threads)}
}

// kcScratch is one walker's state, reused across roots: the clique being
// grown, its sorted copy (the slice fn sees) and a candidate row per depth.
type kcScratch struct {
	clique, sorted []uint32
	cands          [][]uint32
}

func newKCScratch(k int) *kcScratch {
	return &kcScratch{make([]uint32, 0, k), make([]uint32, k), make([][]uint32, k)}
}

// visitRoot calls fn with every k-clique whose lowest-rank vertex is u, in
// the fixed recursion order, its members sorted ascending in a slice reused
// between calls. Returns false if fn stopped the enumeration.
func (e *kcliqueEnum) visitRoot(u uint32, s *kcScratch, fn func(members []uint32) bool) bool {
	k, clique, sorted, cands := e.k, s.clique, s.sorted, s.cands
	if k == 1 {
		sorted[0] = u
		return fn(sorted)
	}
	clique = append(clique[:0], u)
	stopped := false
	// extend grows the current clique using cand: vertices adjacent (in the
	// orientation) to every current member.
	var extend func(cand []uint32)
	extend = func(cand []uint32) {
		if len(clique)+len(cand) < k {
			return
		}
		for _, v := range cand {
			clique = append(clique, v)
			if len(clique) == k {
				copy(sorted, clique)
				slices.Sort(sorted)
				stopped = !fn(sorted)
			} else {
				// out(v) holds only vertices ranked above v, so each clique
				// is grown once, in rank order.
				d := len(clique)
				cands[d] = appendCommon(cands[d][:0], cand, e.out(v))
				extend(cands[d])
			}
			clique = clique[:len(clique)-1]
			if stopped {
				return
			}
		}
	}
	extend(e.out(u))
	return !stopped
}

// ForEachKClique enumerates every k-clique exactly once (k >= 1), calling fn
// with the member vertices sorted ascending. The slice passed to fn is
// reused between calls; copy it if retained. Enumeration recurses over the
// degeneracy orientation, so it is output-sensitive and practical for the
// small-to-medium graphs the generic (r,s) machinery targets.
func ForEachKClique(g *graph.Graph, k int, fn func(members []uint32) bool) {
	if k < 1 {
		return
	}
	n := g.N()
	e, s := newKCliqueEnum(g, k, 1), newKCScratch(k)
	for u := 0; u < n; u++ {
		if !e.visitRoot(uint32(u), s, fn) {
			return
		}
	}
}

// KCliquesFlat enumerates every k-clique and returns the members flat — k
// sorted vertices per clique — in the exact order ForEachKClique emits
// them, with the recursion fanned out across threads by root vertex. The
// chunk-ordered gather makes the list (and hence any dense clique ids
// assigned from it) bit-identical at every thread count.
func KCliquesFlat(g *graph.Graph, k, threads int) []uint32 {
	if k < 1 {
		return nil
	}
	n := g.N()
	if k == 1 {
		out := make([]uint32, n)
		par.ForEach(n, 4096, threads, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				out[u] = uint32(u)
			}
		})
		return out
	}
	e := newKCliqueEnum(g, k, threads)
	walkers := make([]*kcScratch, max(threads, 1))
	return par.Collect(n, 64, threads, func(w, u int, buf []uint32) []uint32 {
		if walkers[w] == nil {
			walkers[w] = newKCScratch(k)
		}
		e.visitRoot(uint32(u), walkers[w], func(members []uint32) bool {
			buf = append(buf, members...)
			return true
		})
		return buf
	})
}

// CountKCliques returns the number of k-cliques.
func CountKCliques(g *graph.Graph, k int) int64 {
	var total int64
	ForEachKClique(g, k, func([]uint32) bool {
		total++
		return true
	})
	return total
}
