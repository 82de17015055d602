package localhi

import (
	"math"
	"sync/atomic"

	"nucleus/internal/hindex"
	"nucleus/internal/nucleus"
)

// The two sweep kernels. Both evaluate the update operator U for one cell
// — H over { min τ(co-members of S) : S ∋ c } — under one contract:
// preserve enables the §4.4 early-exit against cur (the cell's current
// index), par uses atomic τ reads for concurrent asynchronous sweeps
// (stale higher reads are benign: τ stays an upper bound of κ by Theorem 1
// and later sweeps repair them), and the result is the new index plus the
// number of s-clique visits paid.
//
//   - computeTauFlat, the fused kernel, serves instances that store their
//     s-cliques (nucleus.FlatIncidence, i.e. nucleus.Flat): a pure scan
//     of the cell's CSR row with no closure dispatch and no adjacency
//     intersections.
//   - computeTau, the generic kernel, serves the instances that discover
//     s-cliques on the fly (Core, Truss, N34) through VisitSCliques.
//
// Neither allocates in the steady state: the ρ list and the h-index
// counting array live in a per-worker sweepScratch that is reused across
// cells and sweeps.

// sweepScratch is one worker's state for a whole run.
type sweepScratch struct {
	// vals is the gathered ρ list and cnt the counting array of the linear
	// h-index. Both grow to the longest row once and are then reused.
	vals []int32
	cnt  []int32

	// Tallies of the sweep in flight, added to by the owning worker once
	// per chunk and summed and cleared by the coordinator after the join —
	// the sweep loop itself touches no shared counter.
	updates, visits, skipped int64

	// The generic kernel's visitor state for the cell being computed.
	// visitFn is the method value sc.visit, bound on first use: handing
	// VisitSCliques a fresh closure per cell would allocate per cell.
	tau       []int32
	cur       int32
	preserve  bool
	par       bool
	support   int32
	cellVisit int64
	visitFn   func(others []int32) bool

	// Scratches of a run sit in one slice; the pad keeps one worker's hot
	// fields off the cache line of the next worker's.
	_ [64]byte
}

// computeTau evaluates the update operator for cell c against tau through
// the instance's VisitSCliques; see the contract at the top of the file.
func computeTau(inst nucleus.Instance, c int32, tau []int32, sc *sweepScratch, cur int32, preserve, par bool) (int32, int64) {
	if preserve && cur <= 0 {
		return 0, 0
	}
	if sc.visitFn == nil {
		sc.visitFn = sc.visit
	}
	sc.vals = sc.vals[:0]
	sc.tau, sc.cur, sc.preserve, sc.par = tau, cur, preserve, par
	sc.support, sc.cellVisit = 0, 0
	inst.VisitSCliques(c, sc.visitFn)
	if preserve && sc.support >= cur {
		return cur, sc.cellVisit
	}
	return hindex.LinearInto(sc.vals, &sc.cnt), sc.cellVisit
}

// visit is the generic kernel's per-s-clique step: gather ρ, and with
// preserve stop once cur s-cliques with ρ >= cur certify the index is kept
// (sound because τ only decreases: H of the full list cannot exceed cur).
func (sc *sweepScratch) visit(others []int32) bool {
	tau := sc.tau
	rho := int32(math.MaxInt32)
	for _, d := range others {
		var v int32
		if sc.par {
			v = atomic.LoadInt32(&tau[d])
		} else {
			v = tau[d]
		}
		if v < rho {
			rho = v
		}
	}
	sc.cellVisit++
	if sc.preserve && rho >= sc.cur {
		sc.support++
		if sc.support >= sc.cur {
			return false
		}
	}
	sc.vals = append(sc.vals, rho)
	return true
}

// flatArrays caches the FlatIncidenceArrays of an instance for the
// duration of a run.
type flatArrays struct {
	offs []int64
	mem  []int32
	co   int64
}

// flatOf extracts the flat incidence arrays if the instance has them.
func flatOf(inst nucleus.Instance) (flatArrays, bool) {
	f, ok := inst.(nucleus.FlatIncidence)
	if !ok {
		return flatArrays{}, false
	}
	offs, mem, co := f.FlatIncidenceArrays()
	if co < 1 || len(offs) == 0 {
		return flatArrays{}, false
	}
	return flatArrays{offs: offs, mem: mem, co: int64(co)}, true
}

// computeTauFlat evaluates the update operator for cell c against tau by
// scanning the cell's flat incidence row: ρ-gather, the clamped counting
// h-index and the Preserve early-exit fused into one loop. See the
// contract at the top of the file.
//
//nucleus:noalloc
func computeTauFlat(fa flatArrays, c int32, tau []int32, sc *sweepScratch, cur int32, preserve, par bool) (int32, int64) {
	if preserve && cur <= 0 {
		return 0, 0
	}
	mem := fa.mem
	vals := sc.vals[:0]
	var visits int64
	support := int32(0)
	for p, end := fa.offs[c], fa.offs[c+1]; p < end; p += fa.co {
		rho := int32(math.MaxInt32)
		for q := p; q < p+fa.co; q++ {
			var v int32
			if par {
				v = atomic.LoadInt32(&tau[mem[q]])
			} else {
				v = tau[mem[q]]
			}
			if v < rho {
				rho = v
			}
		}
		visits++
		if preserve && rho >= cur {
			support++
			if support >= cur {
				// cur s-cliques with ρ >= cur certify the index is kept;
				// stop without scanning the rest of the row.
				sc.vals = vals
				return cur, visits
			}
		}
		vals = append(vals, rho) //nucleus:lint-ignore noalloc appends into per-worker scratch retained across cells; grows to the longest row once, then amortized zero
	}
	sc.vals = vals
	return hindex.LinearInto(vals, &sc.cnt), visits
}

// notifyNeighborsFlat wakes every co-member cell of c's s-cliques by
// scanning the flat row directly (the fused counterpart of the
// VisitNeighbors closure in And's notification mechanism).
//
//nucleus:noalloc
func notifyNeighborsFlat(fa flatArrays, c int32, active []int32) {
	for _, d := range fa.mem[fa.offs[c]:fa.offs[c+1]] {
		atomic.StoreInt32(&active[d], 1)
	}
}

// kernel is a run's choice between the two sweep kernels, made once from
// what the instance exposes.
type kernel struct {
	inst     nucleus.Instance
	fa       flatArrays
	flat     bool
	preserve bool
}

func kernelFor(inst nucleus.Instance, opts Options) kernel {
	fa, flat := flatOf(inst)
	return kernel{inst: inst, fa: fa, flat: flat, preserve: opts.Preserve}
}

// update evaluates the update operator for cell c with the run's kernel.
func (k *kernel) update(c int32, tau []int32, sc *sweepScratch, cur int32, par bool) (int32, int64) {
	if k.flat {
		return computeTauFlat(k.fa, c, tau, sc, cur, k.preserve, par)
	}
	return computeTau(k.inst, c, tau, sc, cur, k.preserve, par)
}
