// Package hindex implements the H function of the paper (Definition 5):
// H(K) is the largest h such that at least h elements of K are >= h.
//
// Two implementations are provided, mirroring §4.4 of the paper:
//
//   - Sort:   the textbook O(n log n) sort-then-scan version,
//   - Linear: the O(n) counting version (values above n are clamped to n
//     since H can never exceed n); LinearInto is the same over a
//     caller-owned counting array, and the only variant on a hot path.
//
// The §4.4 early-exit heuristic (keep the previous τ once τ values >= τ
// have been seen) is fused into the sweep kernels of package localhi.
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
	var scratch []int32
	return LinearInto(vals, &scratch)
}

// LinearInto is Linear over a caller-owned counting array: scratch is
// grown (and retained across calls) as needed, so a caller that reuses it
// — e.g. one scratch per sweep worker in the local algorithms — pays zero
// allocations in the steady state. The scratch contents need not be
// zeroed between calls.
//
//nucleus:noalloc
func LinearInto(vals []int32, scratch *[]int32) int32 {
	n := int32(len(vals))
	if n == 0 {
		return 0
	}
	if cap(*scratch) < int(n)+1 {
		*scratch = make([]int32, int(n)+1) //nucleus:lint-ignore noalloc grow-once scratch resize; a reusing caller pays zero allocations in the steady state
	}
	cnt := (*scratch)[:n+1]
	clear(cnt)
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
