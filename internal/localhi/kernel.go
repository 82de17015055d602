package localhi

import (
	"math"

	"nucleus/internal/nucleus"
)

// The two sweep kernels. Both evaluate the update operator U for one cell
// — H over { ρ(S) = min τ(co-members of S) : S ∋ c } — under one contract:
// given cur, the cell's current index, they return min(cur, H) and the
// s-clique visits paid. Clamping is Theorem 1, not a heuristic: τ never
// rises, so the next index is at most cur whatever H is. Knowing that
// bound first makes the evaluation one pass with no gathered ρ list: a
// ρ ≥ cur only needs counting (support), a smaller one lands in a counting
// array of cur slots, and once cur s-cliques with ρ ≥ cur have been seen
// the answer is cur and the rest of the row is never read (the §4.4 early
// exit). A cell at cur = 0 costs nothing. par reads τ atomically for
// concurrent asynchronous sweeps (a stale higher read is repaired: the
// reading cell is in progress, so the fall it missed wakes it again, and
// without notification every cell is evaluated again in the next sweep).
//
//   - computeTauFlat, the fused kernel, scans the row of a stored incidence
//     (nucleus.RowsOf: Flat, and Core over the graph's own CSR at
//     co-arity 1): no closure dispatch, no adjacency intersections.
//   - computeTau, the generic kernel, serves the instances that discover
//     s-cliques on the fly (Truss, N34) through VisitSCliques.
//
// Both pay the same visits for the same row order, and neither allocates.

// sweepScratch is one worker's state for a whole run.
type sweepScratch struct {
	// cnt is the counting array of the clamped h-index: one slot per index
	// below the run's largest starting τ, which no cur ever exceeds.
	cnt []int32

	// Tallies of the sweep in flight, added to by the owning worker once per
	// chunk, summed and cleared after the join: no shared counter in a sweep.
	updates, visits, skipped int64

	// The generic kernel's state for the cell being computed, and for
	// waking its neighbors once its index fell to h. visitFn and wakeFn are
	// bound to the scratch once: a closure per cell would allocate per cell.
	tau       []int32
	cur, h    int32
	par       bool
	support   int32
	cellVisit int64
	visitFn   func(others []int32) bool
	wakeFn    func(others []int32) bool

	// Scratches of a run sit in one slice; the pad keeps one worker's hot
	// fields off the cache line of the next worker's.
	_ [64]byte
}

// newScratches returns one scratch per worker for a run that starts at tau.
func newScratches(workers int, tau []int32) []sweepScratch {
	var top int32
	for _, v := range tau {
		top = max(top, v)
	}
	scs := make([]sweepScratch, workers)
	for i := range scs {
		scs[i].cnt = make([]int32, top)
	}
	return scs
}

// settle finishes a cell whose row ended with atLeast < cur = len(cnt)
// s-cliques at ρ ≥ cur: the largest h < cur with h s-cliques at ρ ≥ h.
func settle(cnt []int32, atLeast int32) int32 {
	for h := int32(len(cnt)) - 1; h >= 1; h-- {
		if atLeast += cnt[h]; atLeast >= h {
			return h
		}
	}
	return 0
}

// computeTau evaluates the update operator for cell c against tau through
// the instance's VisitSCliques; see the contract at the top of the file.
func computeTau(inst nucleus.Instance, c int32, tau []int32, sc *sweepScratch, cur int32, par bool) (int32, int64) {
	if cur <= 0 {
		return 0, 0
	}
	if sc.visitFn == nil {
		sc.visitFn = sc.visit
	}
	clear(sc.cnt[:cur])
	sc.tau, sc.cur, sc.par = tau, cur, par
	sc.support, sc.cellVisit = 0, 0
	inst.VisitSCliques(c, sc.visitFn)
	if sc.support >= cur {
		return cur, sc.cellVisit
	}
	return settle(sc.cnt[:cur], sc.support), sc.cellVisit
}

// visit is the generic kernel's per-s-clique step.
func (sc *sweepScratch) visit(others []int32) bool {
	tau, par := sc.tau, sc.par
	rho := int32(math.MaxInt32)
	for _, d := range others {
		rho = min(rho, load(par, tau, d))
	}
	sc.cellVisit++
	if rho >= sc.cur {
		sc.support++
		return sc.support < sc.cur
	}
	if rho > 0 {
		sc.cnt[rho]++
	}
	return true
}

// computeTauFlat evaluates the update operator for cell c against tau by
// scanning the cell's stored row; at co-arity 1 (k-core) ρ is one τ read.
func computeTauFlat(k *kernel, c int32, tau []int32, sc *sweepScratch, cur int32, par bool) (int32, int64) {
	if cur <= 0 {
		return 0, 0
	}
	cnt := sc.cnt[:cur]
	clear(cnt)
	row, co := k.rows.Row(c), k.rows.Co
	support := int32(0)
	if co == 1 {
		for i, d := range row {
			rho := load(par, tau, d)
			if rho >= cur {
				if support++; support >= cur {
					return cur, int64(i) + 1
				}
			} else if rho > 0 {
				cnt[rho]++
			}
		}
		return settle(cnt, support), int64(len(row))
	}
	var visits int64
	for ; len(row) >= co; row = row[co:] {
		rho := int32(math.MaxInt32)
		for _, d := range row[:co] {
			if v := load(par, tau, d); v < rho {
				rho = v
			}
		}
		visits++
		if rho >= cur {
			if support++; support >= cur {
				return cur, visits
			}
		} else if rho > 0 {
			cnt[rho]++
		}
	}
	return settle(cnt, support), visits
}

// The states of And's per-cell active flag. A sequential run uses only the
// first two; a concurrent one marks the cell it claimed in progress until
// its τ is stored, so a co-member's fall in between is never lost.
const (
	flagIdle       int32 = iota // nothing changed since the cell's last update
	flagActive                  // a co-member fell: evaluate it when a sweep next reaches it
	flagInProgress              // claimed: a worker is evaluating it now
)

// wake sets d's flag if a co-member's fall from old to h can matter to d,
// given t, the τ(d) the caller read and found above h. That lower test is
// the row loop's, so the common τ(d) ≤ h costs one load; it is race-free
// because τ only falls: with τ(d) ≤ h, d still counts the co-member's
// s-cliques at ≥ τ(d), whatever d's state. The upper test τ(d) ≤ old (with
// τ(d) > old, d never counted them) holds only for an idle d, whose last
// update has finished:
//   - active: d will be evaluated anyway; nothing is written.
//   - in progress: d may have read the old value and its τ may still fall,
//     so it is woken on the lower test alone.
//   - idle: woken if t ≤ old. A t above old may be a read from before d's
//     last update finished, so τ(d) is read again, after the flag, and d is
//     woken only if h < τ(d) ≤ old.
//
// For any (r,s) this wakes every cell that can still fall, so a sweep that
// updates nothing is the fixpoint.
func wake(tau, active []int32, d, t, h, old int32, par bool) {
	switch load(par, active, d) {
	case flagActive:
		return
	case flagIdle:
		if t > old {
			if t = load(par, tau, d); t <= h || t > old {
				return
			}
		}
	}
	store(par, active, d, flagActive)
}

// notifyNeighborsFlat wakes c's co-members off the stored row.
func notifyNeighborsFlat(k *kernel, c int32, tau, active []int32, h, old int32, par bool) {
	for _, d := range k.rows.Row(c) {
		if t := load(par, tau, d); t > h {
			wake(tau, active, d, t, h, old, par)
		}
	}
}

// kernel is a run's choice between the two sweep kernels, made once: the
// fused one when the instance has stored rows (nucleus.RowsOf).
type kernel struct {
	inst nucleus.Instance
	rows nucleus.Rows
	flat bool
}

func kernelFor(inst nucleus.Instance) kernel {
	rows, flat := nucleus.RowsOf(inst)
	return kernel{inst: inst, rows: rows, flat: flat}
}

// update evaluates the update operator for cell c with the run's kernel.
func (k *kernel) update(c int32, tau []int32, sc *sweepScratch, cur int32, par bool) (int32, int64) {
	if k.flat {
		return computeTauFlat(k, c, tau, sc, cur, par)
	}
	return computeTau(k.inst, c, tau, sc, cur, par)
}

// notify wakes the cells c's fall from old to h can affect; it follows the
// update call that computed h on the same scratch.
func (k *kernel) notify(c int32, tau, active []int32, sc *sweepScratch, h, old int32, par bool) {
	if k.flat {
		notifyNeighborsFlat(k, c, tau, active, h, old, par)
		return
	}
	if sc.wakeFn == nil { // active is the run's: one array for the scratch's whole life
		sc.wakeFn = func(others []int32) bool {
			for _, d := range others {
				if t := load(sc.par, sc.tau, d); t > sc.h {
					wake(sc.tau, active, d, t, sc.h, sc.cur, sc.par)
				}
			}
			return true
		}
	}
	sc.h = h
	k.inst.VisitSCliques(c, sc.wakeFn)
}
