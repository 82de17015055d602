package peel

import (
	"slices"
	"sort"
	"sync/atomic"

	"nucleus/internal/nucleus"
	"nucleus/internal/par"
)

// RunThreads peels the instance for a caller that has a thread count. The
// engine depends on the kind of instance only, never on threads, so Kappa,
// MaxKappa and Order are a pure function of the instance. One with stored
// rows (nucleus.RowsOf: Core, Flat) goes to Run: on rows the frontier
// engine does not scale from one thread to two and is 3–5× behind. One that
// discovers its s-cliques on the fly (Truss, N34), where a cell's work is
// an adjacency intersection worth splitting, is peeled with
// round-synchronous frontier parallelism, the bucketed (Julienne-style)
// formulation of Algorithm 1:
//
//	level k:   extract every unprocessed cell of current minimum degree k
//	           (the whole min bucket) as the frontier
//	sub-round: process the frontier across a worker pool — each dying
//	           s-clique is attributed to exactly one frontier member and
//	           contributes one pending decrement (an atomic delta counter)
//	           per surviving co-member cell
//	barrier:   merge the pending decrements into the degree array, clamped
//	           at k (degrees never drop below the level being peeled, as in
//	           the sequential algorithm); cells that fell to k form the next
//	           sub-round's frontier, cells still above k move buckets
//
// The merge is a sum of commutative atomic increments and every frontier is
// sorted before it is recorded, so the results are bit-identical across
// thread counts. Kappa and MaxKappa match Run's exactly — κ is unique —
// while Order is a different valid peeling order: whole levels, not single
// cells. threads <= 1 runs the same engine on the calling goroutine, and
// small frontiers are always processed inline: a barrier per sub-round
// only pays for itself when there is enough frontier work to split.
func RunThreads(inst nucleus.Instance, threads int) *Result {
	if _, stored := nucleus.RowsOf(inst); stored {
		return Run(inst)
	}
	if threads < 1 {
		threads = 1
	}
	n := inst.NumCells()
	res := &Result{Kappa: make([]int32, n), Order: make([]int32, 0, n)}
	if n == 0 {
		return res
	}

	deg := inst.Degrees()
	maxD := slices.Max(deg)
	boffs, bcells := par.CountingCSR(deg, int(maxD)+1, threads)

	p := &parPeeler{
		inst:      inst,
		deg:       deg,
		delta:     make([]int32, n),
		stamp:     make([]int32, n),
		threads:   threads,
		touched:   make([][]int32, threads),
		boffs:     boffs,
		bcells:    bcells,
		spillHead: make([]int32, int(maxD)+1),
	}
	for i := range p.stamp {
		p.stamp[i] = -1
	}
	for i := range p.spillHead {
		p.spillHead[i] = -1
	}

	var (
		frontier  = make([]int32, 0, n)
		next      = make([]int32, 0, n)
		remaining = n
		cur       int32 // lowest possibly non-empty bucket
		k         int32 // current peeling level
		sr        int32 // sub-round stamp, strictly increasing
	)
	for remaining > 0 {
		// Advance to the next level: extract the whole current-min bucket,
		// dropping lazily-deleted entries (cells peeled already or moved to
		// a lower bucket by a barrier merge).
		frontier = frontier[:0]
		for len(frontier) == 0 {
			if int(cur) >= len(p.spillHead) {
				panic("peel: level scan ran past the last bucket")
			}
			frontier = p.extractLevel(cur, frontier)
			if len(frontier) == 0 {
				cur++
			}
		}
		k = cur

		for len(frontier) > 0 {
			// Sort for determinism: the per-worker touched lists yield a
			// scheduling-dependent order (and a spill chain is newest-first).
			sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
			for _, c := range frontier {
				p.stamp[c] = sr
				res.Kappa[c] = k
			}
			res.Order = append(res.Order, frontier...)
			remaining -= len(frontier)

			p.processFrontier(frontier, sr)

			next = p.mergeTouched(k, next[:0])
			sr++
			frontier, next = next, frontier
		}
		// Every cell at degree k is peeled and merges clamp at k, so the
		// minimum degree among the remainder is strictly above the level.
		cur++
	}
	res.MaxKappa = k
	return res
}

// parPeeler holds the shared state of one RunThreads invocation.
type parPeeler struct {
	inst nucleus.Instance
	// deg is the current degree of every unprocessed cell; written only at
	// barrier merges, read-only during frontier processing.
	deg []int32
	// delta accumulates pending decrements during a sub-round (atomic) and
	// is reset to zero for every touched cell at the merge.
	delta []int32
	// stamp[c] is -1 while c is unprocessed, else the sub-round in which it
	// was peeled. All stamps of a sub-round are written before its frontier
	// pass starts, so the pass reads them without synchronization.
	stamp   []int32
	threads int
	// touched[w] is worker w's list of cells it claimed (first decrement
	// wins) during the current sub-round.
	touched [][]int32
	// boffs/bcells is the static counting-sort bucket CSR over the initial
	// degrees: bucket d's cells are bcells[boffs[d]:boffs[d+1]]. Entries are
	// validated lazily (stamp < 0 && deg == cur) at extraction, never
	// deleted: after construction a cell only moves to a higher bucket (a
	// merge leaves it at the level, peeled next sub-round, or above it).
	boffs  []int64
	bcells []int32
	// spillHead/spillCell/spillNext hold cells moved to higher buckets by
	// barrier merges as per-bucket singly linked chains threaded through two
	// append-only arrays: spillHead[d] is the newest entry of bucket d (-1 =
	// none), entry i is cell spillCell[i] with predecessor spillNext[i].
	spillHead []int32
	spillCell []int32
	spillNext []int32
}

// extractLevel appends every still-valid cell of bucket cur — unprocessed
// and still at degree cur — to frontier: the static CSR row, then the spill
// chain, which is reset. (The engine serves on-the-fly instances only, whose
// per-cell clique searches dwarf this scan: it is not sharded.)
func (p *parPeeler) extractLevel(cur int32, frontier []int32) []int32 {
	for _, c := range p.bcells[p.boffs[cur]:p.boffs[cur+1]] {
		if p.stamp[c] < 0 && p.deg[c] == cur {
			frontier = append(frontier, c)
		}
	}
	for i := p.spillHead[cur]; i >= 0; i = p.spillNext[i] {
		c := p.spillCell[i]
		if p.stamp[c] < 0 && p.deg[c] == cur {
			frontier = append(frontier, c)
		}
	}
	p.spillHead[cur] = -1
	return frontier
}

// mergeTouched is the steady-state barrier merge: apply the pending
// decrements of the sub-round, clamped at the level k (the sequential
// algorithm never decrements a cell below k — it is about to be peeled at
// k anyway), and route each touched cell to the next frontier or its new
// bucket's spill chain. All workers joined before the call, so every atomic
// add to delta happens-before the plain reads and resets here, and no worker
// adds again until the next frontier is published.
//
// The appends stay within capacity after warm-up: next is preallocated to
// cap n and each unprocessed cell is appended at most once per merge; the
// spill pushes are bounded by the total s-clique decrements, so spillCell
// and spillNext (in lockstep) grow to that bound once.
func (p *parPeeler) mergeTouched(k int32, next []int32) []int32 {
	for w := range p.touched {
		for _, d := range p.touched[w] {
			nd := p.deg[d] - p.delta[d]
			p.delta[d] = 0
			if nd <= k {
				nd = k
				next = append(next, d)
			} else {
				p.spillCell = append(p.spillCell, d)
				p.spillNext = append(p.spillNext, p.spillHead[nd])
				p.spillHead[nd] = int32(len(p.spillCell) - 1)
			}
			p.deg[d] = nd
		}
		p.touched[w] = p.touched[w][:0]
	}
	return next
}

// frontierGrain is the minimum number of frontier cells per worker before a
// sub-round is worth parallelizing; below it the barrier and goroutine
// overhead outweigh the clique scans.
const frontierGrain = 128

// processFrontier scans the s-cliques of every frontier cell and records
// the decrements they imply. An s-clique dies in the sub-round of its
// earliest-peeled member; within one sub-round it is attributed to the
// member with the smallest cell id, which alone records one decrement for
// each still-unprocessed co-member. The first decrement of a cell claims it
// into the worker's touched list, so the barrier merge visits each touched
// cell exactly once.
func (p *parPeeler) processFrontier(frontier []int32, sr int32) {
	par.ForEachWorker(len(frontier), frontierGrain, p.threads, func(w, lo, hi int) {
		tl := &p.touched[w]
		for i := lo; i < hi; i++ {
			c := frontier[i]
			p.inst.VisitSCliques(c, func(others []int32) bool {
				for _, d := range others {
					st := p.stamp[d]
					if st >= 0 && st < sr {
						return true // destroyed in an earlier sub-round
					}
					if st == sr && d < c {
						return true // attributed to the smaller peer
					}
				}
				for _, d := range others {
					if p.stamp[d] < 0 {
						if atomic.AddInt32(&p.delta[d], 1) == 1 {
							*tl = append(*tl, d)
						}
					}
				}
				return true
			})
		}
	})
}
