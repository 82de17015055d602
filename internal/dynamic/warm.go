package dynamic

import (
	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
)

// Warm-started batch maintenance. The paper's Lemma 2 guarantees the
// iterated h-index computation converges to κ from ANY starting τ that is
// pointwise at least κ — not only from the s-degrees. Since a single edge
// insertion raises core numbers by at most one (Sarıyüce et al. VLDB'13)
// and truss numbers by at most one (Huang et al. SIGMOD'14), the previous
// decomposition plus the batch size is a valid — and very tight — upper
// start after a batch of edits. Removals only lower κ, so the old κ
// already dominates them. The local algorithms then converge in a handful
// of sweeps, mostly skipped by the notification mechanism.

// WarmCoreNumbers computes the core numbers of newG given the core
// numbers of an earlier version of the graph and the number of edges
// inserted since. Vertices must keep their ids; newG may also have grown
// (new vertices start from their degree). Removals need no accounting.
func WarmCoreNumbers(newG *graph.Graph, oldKappa []int32, inserts int) *localhi.Result {
	return WarmCoreNumbersOn(nucleus.NewCore(newG), newG, oldKappa, inserts, 1)
}

// WarmCoreNumbersOn is WarmCoreNumbers against a caller-supplied (1,2)
// instance of newG (e.g. a memoized one) with an explicit worker count.
func WarmCoreNumbersOn(inst nucleus.Instance, newG *graph.Graph, oldKappa []int32, inserts int, threads int) *localhi.Result {
	n := newG.N()
	seed := make([]int32, n)
	for v := 0; v < n; v++ {
		if v < len(oldKappa) {
			seed[v] = oldKappa[v] + int32(inserts)
		} else {
			seed[v] = int32(newG.Degree(uint32(v))) // new vertex: cold start
		}
	}
	return localhi.And(inst, localhi.Options{
		InitialTau:   seed,
		Notification: true,
		Threads:      threads,
	})
}

// WarmTrussNumbers computes the truss numbers of newG given an earlier
// graph and its truss numbers. Edge identities are matched by endpoints:
// edges surviving from oldG start at their old κ plus the insert count;
// new edges start cold at their triangle count.
func WarmTrussNumbers(newG, oldG *graph.Graph, oldKappa []int32, inserts int) *localhi.Result {
	return WarmTrussNumbersOn(nucleus.NewTruss(newG), newG, oldG, oldKappa, inserts, 1)
}

// WarmTrussNumbersOn is WarmTrussNumbers against a caller-supplied (2,3)
// instance of newG with an explicit worker count.
func WarmTrussNumbersOn(inst nucleus.Instance, newG, oldG *graph.Graph, oldKappa []int32, inserts int, threads int) *localhi.Result {
	seed := inst.Degrees() // cold default for new edges
	oldN := uint32(oldG.N())
	for e := int64(0); e < newG.M(); e++ {
		u, v := newG.Edge(e)
		if u >= oldN || v >= oldN {
			continue // endpoint grown since oldG: necessarily a new edge
		}
		if oldE, ok := oldG.EdgeID(u, v); ok {
			warm := oldKappa[oldE] + int32(inserts)
			if warm < seed[e] {
				seed[e] = warm
			}
		}
	}
	return localhi.And(inst, localhi.Options{
		InitialTau:   seed,
		Notification: true,
		Threads:      threads,
	})
}
