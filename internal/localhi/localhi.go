// Package localhi implements the paper's local algorithms: Snd (Algorithm 2,
// synchronous nucleus decomposition) and And (Algorithm 3, asynchronous
// nucleus decomposition with the notification mechanism of §4.2.1). Both
// iterate h-index computations on the s-degrees of cells until the τ indices
// converge to the κ indices (Theorem 3 / Lemma 2).
//
// The algorithms work against any nucleus.Instance, so the same code
// computes k-core (1,2), k-truss (2,3), the (3,4) nucleus and any generic
// (r,s). There are two sweep kernels, one per side of the paper's §5 fork:
// an instance with stored rows (nucleus.RowsOf: Flat, and Core — the CSR
// *is* the incidence) runs the fused kernel, pure array scans, and one that
// discovers its s-cliques on the fly (Truss, N34) runs the generic kernel
// through VisitSCliques. Both compute min(τ, H) in one clamped pass that
// stops once the current index is certified and allocate nothing while
// sweeping (see kernel.go). Both algorithms are parallel: idle workers
// claim the next 64 cells off a shared cursor (par.ForEachWorker), the
// dynamic scheduling §4.4 recommends against notification-induced load
// imbalance.
//
// What the paper claims for them is a good approximation after few sweeps,
// an answer at any time and thread scaling, which peeling lacks — not a
// faster exact κ on few cores: on k-core at two threads the sequential peel
// is about 3× ahead of AND (docs/PERFORMANCE.md "Scaling").
//
// A converged run yields the exact decomposition (Result.Converged);
// bounding Options.MaxSweeps yields an anytime approximation with the
// one-sided guarantee τ ≥ κ. Options.Progress publishes copy-on-write τ
// snapshots with per-sweep convergence metrics while a run is still in
// flight, and Options.Stop supports cooperative cancellation and
// wall-clock deadlines — together they make the anytime property
// observable from outside the run (see docs/ANYTIME.md).
// Options.Subset restricts recomputation to a cell subset (the
// query-driven mode of package query), and Options.InitialTau warm-starts
// reconvergence after graph edits (package dynamic).
package localhi

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"nucleus/internal/nucleus"
	"nucleus/internal/par"
)

// sweepGrain is the number of cells a worker claims at a time.
const sweepGrain = 64

// Options configures a local decomposition run.
type Options struct {
	// Threads is the worker count; values <= 1 run sequentially.
	Threads int
	// MaxSweeps bounds the number of sweeps; 0 means run to convergence.
	// A bounded run returns the intermediate τ, which is a valid
	// approximation (Theorem 1: τ ≥ κ pointwise, non-increasing).
	MaxSweeps int
	// Order is the cell processing order for And; nil means 0..n-1.
	// Per Theorem 4, processing in the peeling order (non-decreasing final
	// κ with peeling tie-breaks, e.g. peel.Result.Order) converges in a
	// single iteration. It must be a permutation of [0, NumCells): a run
	// panics rather than report a partial sweep as Converged.
	Order []int32
	// Notification enables the plateau-skipping wakeup mechanism (§4.2.1);
	// only meaningful for And.
	Notification bool
	// OnSweep, when non-nil, is invoked after every sweep with the sweep
	// index (1-based) and the current τ array (read-only; valid only for
	// the duration of the call).
	OnSweep func(sweep int, tau []int32)
	// Subset, when non-nil, restricts recomputation to the listed cells
	// (query-driven processing, §1.2); all other cells keep τ = their
	// s-degree.
	Subset []int32
	// InitialTau, when non-nil, seeds τ instead of the s-degrees: any start
	// ≥ κ; the run is the iteration τ ← min(τ, U(τ)), so τ never rises and
	// Lemma 2 takes it to κ. A tight start (e.g. the κ of a slightly older
	// version of the graph, bumped by the number of edits) converges in far
	// fewer sweeps. The slice is copied. Values above a cell's s-degree are
	// clamped to it (H can never exceed the s-clique count).
	InitialTau []int32
	// Progress, when non-nil, receives a copy-on-write snapshot of τ plus
	// per-sweep convergence metrics after every sweep, and a Final snapshot
	// when the run ends (see Progress). Publishing runs between sweeps on
	// the coordinating goroutine, so the sweep kernels stay untouched.
	Progress *Progress
	// Stop, when non-nil, is polled between sweeps; once it returns true
	// the run ends after the current sweep and returns the intermediate τ
	// (still a valid approximation: τ ≥ κ) with Result.Stopped set.
	// Cooperative cancellation and wall-clock budgets hook in here.
	Stop func() bool
}

// Result reports the outcome of a local decomposition run.
type Result struct {
	// Tau holds the final τ indices; equal to κ when Converged.
	Tau []int32
	// Iterations counts sweeps that updated at least one τ index. This
	// matches the paper's iteration counts (e.g. SND on the Figure 2 toy
	// graph takes 2 iterations).
	Iterations int
	// Sweeps counts all sweeps performed, including the final no-change
	// sweep that detects convergence and any verification sweeps.
	Sweeps int
	// Converged reports whether τ = κ was certified.
	Converged bool
	// Stopped reports that Options.Stop ended the run early (cancellation
	// or a deadline), as opposed to convergence or an exhausted MaxSweeps
	// budget.
	Stopped bool
	// Updates is the total number of τ decrements applied.
	Updates int64
	// SkippedCells counts cell visits avoided by the notification
	// mechanism.
	SkippedCells int64
	// WorkVisits counts s-clique visits performed (the dominant cost).
	WorkVisits int64
	// SweepUpdates[i] is the number of τ decrements in sweep i+1. The
	// update rate decays toward zero as τ approaches κ, giving a
	// ground-truth-free convergence signal for accuracy/runtime decisions
	// (the quality metric of the paper's §1.2).
	SweepUpdates []int64
}

func (o Options) threads() int { return max(o.Threads, 1) }

// Snd runs the synchronous algorithm: every sweep computes τ_{t+1} for all
// cells from the frozen τ_t of the previous sweep (Jacobi iteration).
func Snd(inst nucleus.Instance, opts Options) *Result {
	n := inst.NumCells()
	tau := initialTau(inst, opts)
	prev := make([]int32, n)
	res := &Result{}
	cells := sweepCells(n, opts)
	k := kernelFor(inst)
	scs := newScratches(opts.threads(), tau)
	body := func(chunk []int32, sc *sweepScratch) {
		var upd, vis int64
		for _, c := range chunk {
			h, v := k.update(c, prev, sc, prev[c], false)
			vis += v
			if h != prev[c] {
				upd++
			}
			tau[c] = h
		}
		sc.updates += upd
		sc.visits += vis
	}

	for {
		copy(prev, tau)
		updates := res.sweep(opts, tau, cells, scs, body)
		if updates == 0 {
			res.Converged = true
			break
		}
		if opts.MaxSweeps > 0 && res.Sweeps >= opts.MaxSweeps {
			break
		}
		if opts.Stop != nil && opts.Stop() {
			res.Stopped = true
			break
		}
	}
	res.Tau = tau
	if opts.Progress != nil {
		opts.Progress.finish(res)
	}
	return res
}

// And runs the asynchronous algorithm: cells read the freshest available τ
// values (Gauss–Seidel iteration), optionally skipping cells whose
// neighborhood is unchanged (notification mechanism).
func And(inst nucleus.Instance, opts Options) *Result {
	n := inst.NumCells()
	tau := initialTau(inst, opts)
	res := &Result{}
	cells := sweepCells(n, opts)
	concurrent := opts.threads() > 1
	k := kernelFor(inst)
	scs := newScratches(opts.threads(), tau)

	var active []int32
	if opts.Notification {
		active = make([]int32, n)
		for _, c := range cells {
			active[c] = 1
		}
	}
	ignoreFlags := false
	body := func(chunk []int32, sc *sweepScratch) {
		var upd, vis, skip int64
		for _, c := range chunk {
			if active != nil && !ignoreFlags {
				if atomic.LoadInt32(&active[c]) == 0 {
					skip++
					continue
				}
				// Clear before computing: a notification that arrives
				// mid-compute is preserved for the next sweep, so no
				// wakeup is lost.
				atomic.StoreInt32(&active[c], 0)
			}
			// Only the worker that claimed c writes tau[c], so one read
			// serves as both the kernel's clamp and the old value.
			old := loadTau(concurrent, tau, c)
			h, v := k.update(c, tau, sc, old, concurrent)
			vis += v
			if h < old {
				storeTau(concurrent, tau, c, h)
				upd++
				if active != nil {
					k.notify(c, tau, active, sc, h, old, concurrent)
				}
			}
		}
		sc.updates += upd
		sc.visits += vis
		sc.skipped += skip
	}

	runSweep := func(certify bool) int64 {
		ignoreFlags = certify
		return res.sweep(opts, tau, cells, scs, body)
	}

	// Every sweep — notification, certification and repair alike — counts
	// against the budget, so a bounded run can never report
	// Sweeps > MaxSweeps. The check sits at the loop head: when the budget
	// is exhausted the run stops uncertified and returns the intermediate
	// τ, which is still a valid approximation (τ ≥ κ, Theorem 1).
	for {
		if opts.MaxSweeps > 0 && res.Sweeps >= opts.MaxSweeps {
			break
		}
		// Checked only after the first sweep (like Snd): a stop signal can
		// end a run early, but never before there is an intermediate τ
		// worth returning.
		if res.Sweeps > 0 && opts.Stop != nil && opts.Stop() {
			res.Stopped = true
			break
		}
		updates := runSweep(false)
		if updates == 0 {
			if active == nil {
				res.Converged = true
				break
			}
			if opts.MaxSweeps > 0 && res.Sweeps >= opts.MaxSweeps {
				// No budget left for certification: the plateau is very
				// likely the fixpoint, but without the certifying sweep we
				// must not claim convergence.
				break
			}
			// Certify the fixpoint with one full sweep that ignores the
			// notification flags; in the benign-race worst case this
			// degenerates to a synchronous sweep (§4.2.1). A non-zero
			// certification sweep re-enters the loop (and the budget check).
			if runSweep(true) == 0 {
				res.Converged = true
				break
			}
		}
	}
	res.Tau = tau
	if opts.Progress != nil {
		opts.Progress.finish(res)
	}
	return res
}

// loadTau reads τ(c), atomically when other workers may be writing τ.
//
//nucleus:noalloc
func loadTau(concurrent bool, tau []int32, c int32) int32 {
	if concurrent {
		return atomic.LoadInt32(&tau[c])
	}
	return tau[c]
}

func storeTau(concurrent bool, tau []int32, c int32, v int32) {
	if concurrent {
		atomic.StoreInt32(&tau[c], v)
		return
	}
	tau[c] = v
}

// initialTau builds the starting τ array: the s-degrees, or the caller's
// warm start clamped to them.
func initialTau(inst nucleus.Instance, opts Options) []int32 {
	tau := inst.Degrees()
	if opts.InitialTau == nil {
		return tau
	}
	if len(opts.InitialTau) != len(tau) {
		panic("localhi: InitialTau length mismatch")
	}
	for i, v := range opts.InitialTau {
		if v < tau[i] {
			tau[i] = v
		}
	}
	return tau
}

// sweepCells resolves the cell visit order for a run.
func sweepCells(n int, opts Options) []int32 {
	if opts.Subset != nil {
		return opts.Subset
	}
	if opts.Order != nil {
		checkPermutation(opts.Order, n)
		return opts.Order
	}
	cells := make([]int32, n)
	for i := range cells {
		cells[i] = int32(i)
	}
	return cells
}

// checkPermutation panics unless order lists every cell of [0, n) once.
func checkPermutation(order []int32, n int) {
	seen := make([]bool, n)
	for _, c := range order {
		if c < 0 || int(c) >= n || seen[c] {
			panic(fmt.Sprintf("localhi: Order is not a permutation of [0, %d): cell %d is out of range or listed twice", n, c))
		}
		seen[c] = true
	}
	if len(order) != n {
		panic(fmt.Sprintf("localhi: Order is not a permutation of [0, %d): it lists %d cells", n, len(order)))
	}
}

// sweep runs body over the cells in grain-sized chunks claimed dynamically
// by up to len(scs) workers, each with its own scratch (a single worker
// runs inline), books the tallies they left there into res, shows the
// sweep to the run's observers and returns its update count.
func (res *Result) sweep(opts Options, tau, cells []int32, scs []sweepScratch, body func(chunk []int32, sc *sweepScratch)) int64 {
	par.ForEachWorker(len(cells), sweepGrain, len(scs), func(w, lo, hi int) {
		body(cells[lo:hi], &scs[w])
	})
	var updates int64
	for i := range scs {
		sc := &scs[i]
		updates += sc.updates
		res.WorkVisits += sc.visits
		res.SkippedCells += sc.skipped
		sc.updates, sc.visits, sc.skipped = 0, 0, 0
	}
	res.Sweeps++
	res.SweepUpdates = append(res.SweepUpdates, updates)
	if updates > 0 {
		res.Iterations++
		res.Updates += updates
	}
	if opts.OnSweep != nil {
		opts.OnSweep(res.Sweeps, tau)
	}
	if opts.Progress != nil {
		opts.Progress.observe(res.Sweeps, tau, updates, false, false)
	}
	return updates
}

// DefaultThreads returns a sensible worker count for parallel runs.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }
