// Package hindex implements the H function of the paper (Definition 5):
// H(K) is the largest h such that at least h elements of K are >= h.
//
// Two implementations are provided, mirroring §4.4 of the paper:
//
//   - Sort:   the textbook O(n log n) sort-then-scan version,
//   - Linear: the O(n) counting version (values above n are clamped to n
//     since H can never exceed n).
//
// Neither is on a hot path: the sweep kernels of package localhi compute
// min(τ, H) in a clamped pass of their own and are tested against these.
package hindex

import "sort"

// Sort computes H(K) by sorting a copy of vals in non-increasing order and
// scanning for the largest h with vals[h-1] >= h.
func Sort(vals []int32) int32 {
	if len(vals) == 0 {
		return 0
	}
	cp := append([]int32(nil), vals...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] > cp[j] })
	h := int32(0)
	for i, v := range cp {
		if v >= int32(i+1) {
			h = int32(i + 1)
		} else {
			break
		}
	}
	return h
}

// Linear computes H(K) in O(n) with a counting array. Values larger than
// n are treated as n, which cannot change the result.
func Linear(vals []int32) int32 {
	n := int32(len(vals))
	if n == 0 {
		return 0
	}
	cnt := make([]int32, n+1)
	for _, v := range vals {
		if v < 0 {
			continue
		}
		if v > n {
			v = n
		}
		cnt[v]++
	}
	// Scan down: atLeast accumulates the number of values >= h.
	atLeast := int32(0)
	for h := n; h >= 1; h-- {
		atLeast += cnt[h]
		if atLeast >= h {
			return h
		}
	}
	return 0
}
