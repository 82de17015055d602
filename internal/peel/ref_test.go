package peel

import (
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

// The references the engines are compared with: the closure-and-lazy-queue
// peel and the rescanning Levels that were the production code until the
// array peel replaced them. Both read an instance's rows one s-clique at a
// time through nucleustest.Groups.

// refPeel is Algorithm 1 over a lazy-deletion bucket queue.
func refPeel(inst nucleus.Instance) *Result {
	n := inst.NumCells()
	deg := inst.Degrees()
	q := newBucketQueue(deg)
	res := &Result{Kappa: make([]int32, n), Order: make([]int32, 0, n)}
	processed := make([]bool, n)
	// k tracks the running maximum of processed degrees: κ values are
	// non-decreasing along the peeling order even when a decremented cell
	// dips below an earlier minimum.
	k := int32(0)
	for i := 0; i < n; i++ {
		c := q.popMin()
		k = max(k, deg[c])
		res.Kappa[c] = k
		processed[c] = true
		res.Order = append(res.Order, c)
	scliques:
		for _, others := range nucleustest.Groups(inst, c) {
			for _, d := range others {
				if processed[d] {
					continue scliques // this s-clique was already destroyed
				}
			}
			for _, d := range others {
				if deg[d] > k {
					deg[d]--
					q.decrease(d, deg[d])
				}
			}
		}
	}
	res.MaxKappa = k
	return res
}

// bucketQueue is a bucket priority queue over cells keyed by their current
// degree. It uses lazy deletion: decrease-key appends the cell to its new
// bucket and stale entries are discarded on pop by validating against the
// live degree array.
type bucketQueue struct {
	buckets [][]int32
	cur     int32 // lowest possibly non-empty bucket
	deg     []int32
	popped  []bool
}

func newBucketQueue(deg []int32) *bucketQueue {
	q := &bucketQueue{deg: deg, popped: make([]bool, len(deg))}
	if len(deg) > 0 {
		q.buckets = make([][]int32, slices.Max(deg)+1)
	}
	for c, d := range deg {
		q.buckets[d] = append(q.buckets[d], int32(c))
	}
	return q
}

// popMin removes and returns an unprocessed cell of minimum current degree.
// It must only be called while unprocessed cells remain.
func (q *bucketQueue) popMin() int32 {
	for {
		b := q.buckets[q.cur]
		if len(b) == 0 {
			q.cur++
			continue
		}
		c := b[len(b)-1]
		q.buckets[q.cur] = b[:len(b)-1]
		if q.popped[c] || q.deg[c] != q.cur {
			continue // stale entry
		}
		q.popped[c] = true
		return c
	}
}

// decrease records that cell c now has degree newDeg.
func (q *bucketQueue) decrease(c int32, newDeg int32) {
	if q.popped[c] {
		return
	}
	q.buckets[newDeg] = append(q.buckets[newDeg], c)
	q.cur = min(q.cur, newDeg)
}

// refLevels is Definition 7 read literally: rescan every cell for the
// minimum, rescan for the members, remove them. Quadratic in the level
// count.
func refLevels(inst nucleus.Instance) *LevelsResult {
	n := inst.NumCells()
	deg := inst.Degrees()
	level := make([]int32, n)
	for i := range level {
		level[i] = -1
	}
	res := &LevelsResult{Level: level}
	for remaining := n; remaining > 0; res.Count++ {
		lowest := int32(-1)
		for c := 0; c < n; c++ {
			if level[c] < 0 && (lowest < 0 || deg[c] < lowest) {
				lowest = deg[c]
			}
		}
		li := int32(res.Count)
		var cur []int32
		for c := 0; c < n; c++ {
			if level[c] < 0 && deg[c] == lowest {
				cur = append(cur, int32(c))
				level[c] = li
			}
		}
		// An s-clique dies when its first member leaves; one with several
		// members in this level is attributed to the smallest cell id.
		for _, c := range cur {
		scliques:
			for _, others := range nucleustest.Groups(inst, c) {
				for _, d := range others {
					if level[d] >= 0 && (level[d] < li || d < c) {
						continue scliques
					}
				}
				for _, d := range others {
					if level[d] < 0 {
						deg[d]--
					}
				}
			}
		}
		res.Sizes = append(res.Sizes, len(cur))
		remaining -= len(cur)
	}
	return res
}

// checkKappa asserts got carries exactly the reference's κ and MaxKappa.
func checkKappa(t testing.TB, what string, inst nucleus.Instance, got, want *Result) {
	t.Helper()
	if got.MaxKappa != want.MaxKappa {
		t.Fatalf("%s: MaxKappa %d, reference %d", what, got.MaxKappa, want.MaxKappa)
	}
	if len(got.Kappa) != len(want.Kappa) {
		t.Fatalf("%s: %d κ values, reference %d", what, len(got.Kappa), len(want.Kappa))
	}
	for c := range want.Kappa {
		if got.Kappa[c] != want.Kappa[c] {
			t.Fatalf("%s: κ(%s) = %d, reference %d", what, inst.CellLabel(int32(c)), got.Kappa[c], want.Kappa[c])
		}
	}
}

// checkValidOrder replays res.Order on the instance: it must be a
// permutation of the cells, and every cell, when it goes, must have the
// minimum clamped s-degree among the cells still present — that degree
// being its κ. The live degrees are kept by a naive unclamped removal and
// the popped cell's is also recounted from scratch.
func checkValidOrder(t testing.TB, inst nucleus.Instance, res *Result) {
	t.Helper()
	n := inst.NumCells()
	if len(res.Order) != n || len(res.Kappa) != n {
		t.Fatalf("order lists %d cells, κ %d, want %d", len(res.Order), len(res.Kappa), n)
	}
	live := inst.Degrees()
	gone := make([]bool, n)
	intact := func(others []int32) bool {
		for _, d := range others {
			if gone[d] {
				return false
			}
		}
		return true
	}
	k := int32(0)
	for i, c := range res.Order {
		if c < 0 || int(c) >= n || gone[c] {
			t.Fatalf("order[%d] = %d: out of range or peeled twice", i, c)
		}
		recount := int32(0)
		for _, others := range nucleustest.Groups(inst, c) {
			if intact(others) {
				recount++
			}
		}
		if recount != live[c] {
			t.Fatalf("order[%d]: replay holds cell %d at degree %d, a recount gives %d", i, c, live[c], recount)
		}
		lowest := live[c]
		for d, dd := range live {
			if !gone[d] {
				lowest = min(lowest, dd)
			}
		}
		if max(live[c], k) != max(lowest, k) {
			t.Fatalf("order[%d]: cell %d goes at clamped degree %d while one at %d is present", i, c, max(live[c], k), max(lowest, k))
		}
		if k = max(k, live[c]); res.Kappa[c] != k {
			t.Fatalf("order[%d]: κ(%d) = %d, the replay peels it at %d", i, c, res.Kappa[c], k)
		}
		gone[c] = true
		for _, others := range nucleustest.Groups(inst, c) {
			if intact(others) {
				for _, d := range others {
					live[d]--
				}
			}
		}
	}
}

// diffFamilies are the 8 generator families the differential suite runs
// over. Sizes are kept modest so the full cross product (families ×
// instances × thread counts × three engines) stays fast under -race.
var diffFamilies = []struct {
	Name string
	Mk   func() *graph.Graph
}{
	{"complete", func() *graph.Graph { return graph.Complete(10) }},
	{"cliqueChain", func() *graph.Graph { return graph.CliqueChain(4, 6) }},
	{"gnm", func() *graph.Graph { return graph.GnM(220, 800, 1) }},
	{"barabasiAlbert", func() *graph.Graph { return graph.BarabasiAlbert(200, 5, 2) }},
	{"rmat", func() *graph.Graph { return graph.RMAT(8, 4, 0.45, 0.22, 0.22, 3) }},
	{"wattsStrogatz", func() *graph.Graph { return graph.WattsStrogatz(180, 6, 0.1, 4) }},
	{"plantedCommunities", func() *graph.Graph { return graph.PlantedCommunities(5, 18, 0.45, 50, 5) }},
	{"powerLawCluster", func() *graph.Graph { return graph.PowerLawCluster(200, 6, 0.45, 6) }},
}

// diffInstances are the cell families differentiated per graph: the three
// first-class families (on-the-fly and flat-indexed) plus generic (r,s)
// pairs, over the flat CSR incidence and over the explicit hypergraph.
var diffInstances = []struct {
	Name string
	Mk   func(g *graph.Graph) nucleus.Instance
}{
	{"core", func(g *graph.Graph) nucleus.Instance { return nucleus.NewCore(g) }},
	{"truss", func(g *graph.Graph) nucleus.Instance { return nucleus.NewTruss(g) }},
	{"trussIndexed", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlatTruss(g, 2) }},
	{"n34", func(g *graph.Graph) nucleus.Instance { return nucleus.NewN34(g) }},
	{"n34Indexed", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlatN34(g, 2) }},
	{"rs13", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlat(g, 1, 3, 2) }},
	{"rs24", func(g *graph.Graph) nucleus.Instance { return nucleus.NewFlat(g, 2, 4, 2) }},
	{"rs24Hyper", func(g *graph.Graph) nucleus.Instance { return nucleustest.NewHyper(g, 2, 4) }},
}
