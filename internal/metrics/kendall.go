// Package metrics provides the evaluation measures used in the paper's
// experiments: Kendall-Tau rank correlation between an intermediate τ
// assignment and the exact κ decomposition (Figures 1a and the convergence
// study), plus simple error statistics for the accuracy/runtime trade-off
// and the query-driven experiments.
package metrics

import (
	"math"
	"sort"
)

// KendallTauB computes the tie-aware Kendall τ-b correlation between the
// paired samples x and y in O(n log n) using Knight's algorithm. Both
// slices must have equal length. The result is in [-1, 1]; identical
// orderings (including ties) give 1.
func KendallTauB(x, y []int32) float64 {
	n := len(x)
	if n != len(y) {
		panic("metrics: length mismatch")
	}
	if n < 2 {
		return 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if x[ia] != x[ib] {
			return x[ia] < x[ib]
		}
		return y[ia] < y[ib]
	})

	pairs := func(t int64) int64 { return t * (t - 1) / 2 }
	n0 := pairs(int64(n))

	// Tie counts in x, and joint ties in (x,y), over the sorted order.
	var n1, n3 int64
	runX, runXY := int64(1), int64(1)
	for i := 1; i < n; i++ {
		a, b := idx[i-1], idx[i]
		if x[a] == x[b] {
			runX++
			if y[a] == y[b] {
				runXY++
			} else {
				n3 += pairs(runXY)
				runXY = 1
			}
		} else {
			n1 += pairs(runX)
			n3 += pairs(runXY)
			runX, runXY = 1, 1
		}
	}
	n1 += pairs(runX)
	n3 += pairs(runXY)

	// Extract y in x-sorted order and count discordant pairs as merge-sort
	// inversions (ties in x contribute none because y is sorted within each
	// x-tie group).
	ys := make([]int32, n)
	for i, id := range idx {
		ys[i] = y[id]
	}
	nd := countInversions(ys)

	// Tie counts in y.
	sorted := append([]int32(nil), y...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	var n2 int64
	run := int64(1)
	for i := 1; i < n; i++ {
		if sorted[i] == sorted[i-1] {
			run++
		} else {
			n2 += pairs(run)
			run = 1
		}
	}
	n2 += pairs(run)

	s := float64(n0 - n1 - n2 + n3 - 2*nd)
	denom := math.Sqrt(float64(n0-n1)) * math.Sqrt(float64(n0-n2))
	if denom == 0 {
		// At least one sample is constant: correlation is undefined; report
		// perfect agreement only if both are constant.
		if n0-n1 == 0 && n0-n2 == 0 {
			return 1
		}
		return 0
	}
	return s / denom
}

// countInversions counts pairs i<j with a[i] > a[j] via bottom-up merge
// sort. a is overwritten.
func countInversions(a []int32) int64 {
	n := len(a)
	buf := make([]int32, n)
	var inv int64
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if a[i] <= a[j] {
					buf[k] = a[i]
					i++
				} else {
					buf[k] = a[j]
					j++
					inv += int64(mid - i)
				}
				k++
			}
			copy(buf[k:hi], a[i:mid])
			copy(buf[k+(mid-i):hi], a[j:hi])
			copy(a[lo:hi], buf[lo:hi])
		}
	}
	return inv
}

// KendallTauBNaive is the O(n²) reference implementation, used by tests and
// acceptable for small inputs.
func KendallTauBNaive(x, y []int32) float64 {
	n := len(x)
	if n < 2 {
		return 1
	}
	var nc, nd, tx, ty int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := sign(x[i] - x[j])
			dy := sign(y[i] - y[j])
			switch {
			case dx == 0 && dy == 0:
				// joint tie: excluded from all counts
			case dx == 0:
				tx++
			case dy == 0:
				ty++
			case dx == dy:
				nc++
			default:
				nd++
			}
		}
	}
	denom := math.Sqrt(float64(nc+nd+tx)) * math.Sqrt(float64(nc+nd+ty))
	if denom == 0 {
		if nc+nd+tx == 0 && nc+nd+ty == 0 {
			return 1
		}
		return 0
	}
	return float64(nc-nd) / denom
}

func sign(v int32) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// ExactFraction returns the fraction of positions where approx equals exact.
func ExactFraction(approx, exact []int32) float64 {
	if len(approx) == 0 {
		return 1
	}
	match := 0
	for i := range approx {
		if approx[i] == exact[i] {
			match++
		}
	}
	return float64(match) / float64(len(approx))
}

// MeanRelativeError returns mean(|approx-exact| / max(exact,1)).
func MeanRelativeError(approx, exact []int32) float64 {
	if len(approx) == 0 {
		return 0
	}
	var total float64
	for i := range approx {
		den := float64(exact[i])
		if den < 1 {
			den = 1
		}
		total += math.Abs(float64(approx[i]-exact[i])) / den
	}
	return total / float64(len(approx))
}
