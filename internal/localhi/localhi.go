// Package localhi implements the paper's local algorithms: Snd (Algorithm 2,
// synchronous nucleus decomposition) and And (Algorithm 3, asynchronous
// nucleus decomposition with the notification mechanism of §4.2.1). Both
// iterate h-index computations on the s-degrees of cells until the τ indices
// converge to the κ indices (Theorem 3 / Lemma 2).
//
// The algorithms work against any nucleus.Instance, so the same code
// computes k-core (1,2), k-truss (2,3), the (3,4) nucleus and any generic
// (r,s). The sweep kernel serves both sides of the paper's §5 fork: it
// scans the cell's row, stored (Flat, and Core — the CSR *is* the
// incidence) or discovered into the worker's buffer (Truss, N34), computes
// min(τ, H) clamped at the current index, stops once that index is
// certified, and allocates nothing while sweeping. It has one loop per
// algorithm (see kernel.go): SND's counts only the rows that fall, AND's
// visits only its active set, the cells a fall woke. Both are parallel:
// idle workers claim the next chunk of equal s-degree work off a shared
// cursor, the dynamic scheduling §4.4 recommends against load imbalance.
//
// What the paper claims for them is a good approximation after few sweeps,
// an answer at any time and thread scaling, which peeling lacks — not a
// faster exact κ on few cores: on k-core of RMAT(14, 8) at two threads the
// sequential peel is about 1.9× ahead of AND (localhi.and_core_ms 4.9
// against peel.core_ms 2.6 in a traced pass, BENCH_e2e.json).
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
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"nucleus/internal/nucleus"
	"nucleus/internal/par"
	"nucleus/internal/peel"
)

// chunkWork is the s-degree work, Σ(deg + 1), of a chunk (cutByWork).
const chunkWork = 4096

// Options configures a local decomposition run.
type Options struct {
	// Threads is the worker count; values <= 1 run sequentially.
	Threads int
	// MaxSweeps bounds the number of sweeps; 0 means run to convergence.
	// A bounded run returns the intermediate τ, which is a valid
	// approximation (Theorem 1: τ ≥ κ pointwise, non-increasing).
	MaxSweeps int
	// Order is the cell processing order for And; nil means ascending
	// s-degree, ties by id (AscendingOrder of the instance's Degrees, also
	// on a warm start): the cheap stand-in for the peeling order, which per
	// Theorem 4 (non-decreasing final κ with peeling tie-breaks, e.g.
	// peel.Result.Order) converges in a single iteration. It must be a
	// permutation of [0, NumCells): a run panics rather than report a
	// partial sweep as Converged.
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
	// clamped to it (H can never exceed the s-clique count). A negative
	// value is below every κ, so it is not a start: the run panics, as it
	// does on a length mismatch.
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
	// sweep that detects convergence.
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
	// mechanism, and those of cells that start final (τ ≤ 1).
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

// Algorithm is one of the paper's three ways to a decomposition. The
// numbering is the root package's nucleus.Algorithm.
type Algorithm int

// The paper's Algorithms 3, 2 and 1.
const (
	AND  Algorithm = iota // asynchronous local, the default (And)
	SND                   // synchronous local (Snd)
	Peel                  // global peeling (peel.Run)
)

// algorithmNames are the wire names, as ParseAlgorithm accepts them.
var algorithmNames = [...]string{AND: "and", SND: "snd", Peel: "peel"}

func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(algorithmNames) {
		return algorithmNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm is the one parser of algorithm names, for the server and
// the CLIs alike: the wire names, and the empty string for AND, the default.
func ParseAlgorithm(s string) (Algorithm, error) {
	if s == "" {
		return AND, nil
	}
	if a := slices.Index(algorithmNames[:], s); a >= 0 {
		return Algorithm(a), nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (want and, snd or peel)", s)
}

// Run is the one dispatch to the engines: And or Snd with opts, or the
// peel, which ignores opts and reports κ as a converged τ.
func Run(inst nucleus.Instance, alg Algorithm, opts Options) *Result {
	switch alg {
	case AND:
		return And(inst, opts)
	case SND:
		return Snd(inst, opts)
	case Peel:
		return &Result{Tau: peel.Run(inst).Kappa, Converged: true}
	}
	panic(fmt.Sprintf("localhi: unknown algorithm %d", int(alg)))
}

// Snd runs the synchronous algorithm: every sweep computes τ_{t+1} for all
// cells from the frozen τ_t of the previous sweep (Jacobi iteration), in
// its own loop (sndSweep). The two arrays swap after each sweep, which is
// exact with a Subset too: they start equal, and each sweep writes every
// listed cell.
func Snd(inst nucleus.Instance, opts Options) *Result {
	deg := inst.Degrees()
	// One ρ slot per s-clique of the longest row: the largest s-degree,
	// read before initialTau clamps deg into τ.
	longest := maxOf(deg)
	cells := sweepCells(len(deg), opts, nil)
	cuts := cutByWork(cells, deg)
	prev := initialTau(deg, opts)
	tau := slices.Clone(prev)
	rows := inst.Rows()
	scs := newScratches(opts.threads(), prev, longest)
	body := func(lo, hi int, sc *sweepScratch) {
		upd, vis := sndSweep(&rows, cells, lo, hi, prev, tau, sc)
		sc.updates += upd
		sc.visits += vis
	}
	return iterate(opts, &tau, cuts, scs, body, func() { prev, tau = tau, prev })
}

// And runs the asynchronous algorithm: cells read the freshest available τ
// values (Gauss–Seidel iteration), optionally skipping cells whose
// neighborhood is unchanged (notification mechanism).
//
// With notification the wake-ups are exact at every thread count (mustWake):
// a cell left idle cannot fall, so a sweep that updates nothing is the
// fixpoint, and the run ends on its first one, as it does without
// notification.
func And(inst nucleus.Instance, opts Options) *Result { return and(inst, opts, notify) }

// notifier is the wake-up pass of a fall: notify (the tests run And with
// the full-row pass it replaced, as the reference).
type notifier func(row, rhos []int32, co int, tau []int32, w *wakes, h, old int32, par bool)

func and(inst nucleus.Instance, opts Options, notify notifier) *Result {
	n := inst.NumCells()
	deg := inst.Degrees()
	cells := sweepCells(n, opts, deg) // before initialTau clamps deg into τ
	cuts := cutByWork(cells, deg)
	rows := inst.Rows()
	// Notification at co-arity ≥ 2 records ρ per s-clique: as many slots as
	// the longest row has s-cliques, the largest s-degree.
	var longest int32
	if opts.Notification && rows.Co > 1 {
		longest = maxOf(deg)
	}
	tau := initialTau(deg, opts)
	concurrent := opts.threads() > 1
	scs := newScratches(opts.threads(), tau, longest)

	w, next := newWakes(n, cells, tau), func() {}
	if !opts.Notification {
		start := slices.Clone(w.bits)
		notify, next = nil, func() { copy(w.bits, start) }
	}
	body := func(lo, hi int, sc *sweepScratch) {
		andSweep(&rows, cells, lo, hi, tau, w, sc, notify, concurrent)
	}
	return iterate(opts, &tau, cuts, scs, body, next)
}

// iterate sweeps until a sweep updates nothing (Converged), MaxSweeps
// sweeps have run or Stop, polled between sweeps, says so (Stopped), and
// calls next between sweeps. A bounded run's τ is still a valid
// approximation (τ ≥ κ, Theorem 1); a stop never precedes the first sweep.
func iterate(opts Options, tau *[]int32, cuts []int, scs []sweepScratch, body func(lo, hi int, sc *sweepScratch), next func()) *Result {
	res := &Result{}
	for res.sweep(opts, *tau, cuts, scs, body) > 0 {
		if opts.MaxSweeps > 0 && res.Sweeps >= opts.MaxSweeps {
			break
		}
		if opts.Stop != nil && opts.Stop() {
			res.Stopped = true
			break
		}
		next()
	}
	res.Converged = res.SweepUpdates[res.Sweeps-1] == 0
	res.Tau = *tau
	if opts.Progress != nil {
		opts.Progress.finish(res)
	}
	return res
}

// load reads a[i] — for τ, in-progress mark and all (evaluate) —
// atomically when other workers may be writing it.
func load(concurrent bool, a []int32, i int32) int32 {
	if concurrent {
		return atomic.LoadInt32(&a[i])
	}
	return a[i]
}

// loadTau reads the index τ[i]: a concurrent load masks the in-progress
// mark, which a sequential run never sets.
func loadTau(concurrent bool, tau []int32, i int32) int32 {
	if concurrent {
		return atomic.LoadInt32(&tau[i]) & math.MaxInt32
	}
	return tau[i]
}

// store writes a[i], atomically when other workers may be reading it.
func store(concurrent bool, a []int32, i int32, v int32) {
	if concurrent {
		atomic.StoreInt32(&a[i], v)
		return
	}
	a[i] = v
}

// initialTau builds the starting τ array in place of the s-degrees deg:
// the degrees themselves, or the caller's warm start clamped to them. It
// panics on a warm start of the wrong length or with a negative value.
func initialTau(deg []int32, opts Options) []int32 {
	tau := deg
	if opts.InitialTau == nil {
		return tau
	}
	if len(opts.InitialTau) != len(tau) {
		panic("localhi: InitialTau length mismatch")
	}
	for i, v := range opts.InitialTau {
		if v < 0 {
			panic(fmt.Sprintf("localhi: InitialTau[%d] = %d is negative", i, v))
		}
		if v < tau[i] {
			tau[i] = v
		}
	}
	return tau
}

// sweepCells resolves the cell visit order for a run: the caller's Subset
// or Order, else ascending deg when the run passes the s-degrees (And),
// else nil, which is id order. A Subset lists distinct cells, an Order
// every cell once: a cell listed twice could be evaluated by two workers
// at once, the later store of its τ undoing the lower one.
func sweepCells(n int, opts Options, deg []int32) []int32 {
	if opts.Subset != nil {
		checkDistinct("Subset", opts.Subset, n)
		return opts.Subset
	}
	if opts.Order != nil {
		checkDistinct("Order", opts.Order, n)
		if len(opts.Order) != n {
			panic(fmt.Sprintf("localhi: Order is not a permutation of [0, %d): it lists %d cells", n, len(opts.Order)))
		}
		return opts.Order
	}
	if deg != nil {
		return AscendingOrder(deg)
	}
	return nil
}

// cutByWork cuts the positions of a run's order (cells, or the ids when
// cells is nil) into chunks for the workers to claim, and returns their
// bounds: a chunk ends at the first multiple of 64 where its s-degree work
// reaches chunkWork, so it owns whole words of AND's bitmap, one of hubs
// is one word and one of leaves many, at every thread count.
func cutByWork(cells, deg []int32) []int {
	n := len(deg)
	if cells != nil {
		n = len(cells)
	}
	cuts, work := []int{0}, 0
	for p := 0; p < n; p++ {
		if p&63 == 0 && work >= chunkWork {
			cuts, work = append(cuts, p), 0
		}
		if cells != nil {
			work += int(deg[cells[p]]) + 1
		} else {
			work += int(deg[p]) + 1
		}
	}
	return append(cuts, n)
}

// AscendingOrder returns the cell ids sorted by (key, id) ascending with one
// counting sort; keys must be non-negative.
func AscendingOrder(keys []int32) []int32 {
	var top int32
	for _, k := range keys {
		top = max(top, k)
	}
	next := make([]int32, top+2)
	for _, k := range keys {
		next[k+1]++
	}
	for k := 1; k < len(next); k++ {
		next[k] += next[k-1]
	}
	order := make([]int32, len(keys))
	for c, k := range keys {
		order[next[k]] = int32(c)
		next[k]++
	}
	return order
}

// checkDistinct panics unless list holds distinct cells of [0, n), naming
// the first that is out of range or listed twice.
func checkDistinct(what string, list []int32, n int) {
	seen := make([]bool, n)
	for _, c := range list {
		if c < 0 || int(c) >= n || seen[c] {
			panic(fmt.Sprintf("localhi: %s must list distinct cells of [0, %d): cell %d is out of range or listed twice", what, n, c))
		}
		seen[c] = true
	}
}

// sweep runs body over the chunks of the run's visit order that cuts
// bounds, claimed dynamically by up to len(scs) workers, each with its own
// scratch (a single worker runs inline), books the tallies they left there
// into res, shows the sweep to the run's observers and returns its update
// count.
func (res *Result) sweep(opts Options, tau []int32, cuts []int, scs []sweepScratch, body func(lo, hi int, sc *sweepScratch)) int64 {
	par.ForEachWorker(len(cuts)-1, 1, len(scs), func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			body(cuts[k], cuts[k+1], &scs[w])
		}
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
