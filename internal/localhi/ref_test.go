package localhi

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// refNotify is the wake-up pass notify replaced, kept as its oracle,
// verbatim up to its name, the ρ record it ignores and the wake rule it
// applies: after a fall, every co-member of every s-clique of the row is
// read, whatever ρ the kernel read for the s-clique.
func refNotify(row, _ []int32, _ int, tau []int32, w *wakes, h, old int32, par bool) {
	for _, d := range row {
		if mustWake(load(par, tau, d), h, old) {
			w.wakeUp(d, par)
		}
	}
}

// The per-cell flag protocol that the bitmap and the in-progress mark in τ
// replaced, kept for refAnd verbatim up to the names of its state
// (refWakes) and wake-up pass (refFlagNotify).

// The states of And's per-cell active flag. A sequential run uses only the
// first two; a concurrent one marks the cell it claimed in progress until
// its τ is stored, so a co-member's fall in between is never lost.
const (
	flagIdle       int32 = iota // nothing changed since the cell's last update
	flagActive                  // a co-member fell: evaluate it when a sweep next reaches it
	flagInProgress              // claimed: a worker is evaluating it now
)

// refWakes is AND's active set: the per-cell flags that decide a wake, a
// bitmap over the positions of the run's order that the sweeps walk, and
// pos[c], c's position. A cell outside a Subset has none (−1): its flag
// stays active, so a wake never reaches its bit.
type refWakes struct {
	active, pos []int32
	bits        []uint64
}

// wake reports whether d must be woken, i.e. made active, by a
// co-member's fall from old to h, given t, the τ(d) the caller read and
// found above h. That lower test is the row loop's, so the common
// τ(d) ≤ h costs one load; it is race-free because τ only falls: with
// τ(d) ≤ h, d still counts the co-member's s-cliques at ≥ τ(d), whatever
// d's state. The upper test τ(d) ≤ old (with τ(d) > old, d never counted
// them) holds only for an idle d, whose last update has finished:
//   - active: d will be evaluated anyway; nothing is written.
//   - in progress: d may have read the old value and its τ may still fall,
//     so it is woken on the lower test alone.
//   - idle: woken if t ≤ old. A t above old may be a read from before d's
//     last update finished, so τ(d) is read again, after the flag, and d is
//     woken only if h < τ(d) ≤ old.
func wake(tau, active []int32, d, t, h, old int32, par bool) bool {
	switch load(par, active, d) {
	case flagActive:
		return false
	case flagIdle:
		if t > old {
			t = load(par, tau, d)
			return t > h && t <= old
		}
	}
	return true
}

// wakeUp makes d active and sets the bit of its position.
func (w *refWakes) wakeUp(d int32, par bool) {
	store(par, w.active, d, flagActive)
	p := w.pos[d]
	if par {
		atomic.OrUint64(&w.bits[p>>6], 1<<(p&63))
		return
	}
	w.bits[p>>6] |= 1 << (p & 63)
}

// refFlagNotify wakes the co-members of a cell, read off its row, that its
// fall from old to h can affect, through the s-cliques whose ρ is above h
// (wake): at co-arity 1 ρ is the co-member's τ, read here; above it, rhos
// holds the ρ the kernel read for each s-clique of the row.
func refFlagNotify(row, rhos []int32, co int, tau []int32, w *refWakes, h, old int32, par bool) {
	if co == 1 {
		for _, d := range row {
			if t := load(par, tau, d); t > h && wake(tau, w.active, d, t, h, old, par) {
				w.wakeUp(d, par)
			}
		}
		return
	}
	for i := 0; len(row) >= co; i, row = i+1, row[co:] {
		if rhos[i] <= h {
			continue
		}
		for _, d := range row[:co] {
			if t := load(par, tau, d); t > h && wake(tau, w.active, d, t, h, old, par) {
				w.wakeUp(d, par)
			}
		}
	}
}

// gridCuts returns the bounds of the fixed 64-cell chunks that cutByWork
// replaced: the grain the reference loops below hand to sweep.
func gridCuts(n int) []int {
	var cuts []int
	for lo := 0; lo < n; lo += 64 {
		cuts = append(cuts, lo)
	}
	return append(cuts, n)
}

// refAnd is the And loop that andSweep replaced, kept as its oracle,
// verbatim up to its name, the wake state its flags sit in (refWakes, whose
// bitmap it writes and never reads), its wake-up pass (refFlagNotify) and
// the chunk bounds it hands to sweep: every listed cell starts active, and
// every sweep reads the flag of every position, in fixed 64-cell chunks.
func refAnd(inst nucleus.Instance, opts Options) *Result {
	n := inst.NumCells()
	deg := inst.Degrees()
	cells := sweepCells(n, opts, deg) // before initialTau clamps deg into τ
	rows := inst.Rows()
	// Notification at co-arity ≥ 2 records ρ per s-clique: as many slots as
	// the longest row has s-cliques, the largest s-degree, read before
	// initialTau clamps deg into τ.
	var longest int32
	if opts.Notification && rows.Co > 1 {
		longest = maxOf(deg)
	}
	tau := initialTau(deg, opts)
	res := &Result{}
	concurrent := opts.threads() > 1
	scs := newScratches(opts.threads(), tau, longest)

	var w *refWakes
	var active []int32
	if opts.Notification {
		w = &refWakes{active: make([]int32, n), bits: make([]uint64, (n+63)/64), pos: make([]int32, n)}
		active = w.active
		for _, c := range cells {
			active[c] = flagActive
		}
	}
	// A sequential run clears the flag of the cell it claims; a concurrent
	// one marks it in progress, before any co-member is read.
	claimed := flagIdle
	if concurrent {
		claimed = flagInProgress
	}
	body := func(lo, hi int, sc *sweepScratch) {
		var upd, vis, skip int64
		for _, c := range cells[lo:hi] {
			if active != nil {
				if load(concurrent, active, c) == flagIdle {
					skip++
					continue
				}
				store(concurrent, active, c, claimed)
			}
			// Only the worker that claimed c writes tau[c], so one read
			// serves as both the kernel's clamp and the old value.
			old := load(concurrent, tau, c)
			h, v, row := update(&rows, c, tau, sc, old, concurrent)
			vis += v
			if h < old {
				store(concurrent, tau, c, h)
				upd++
				if active != nil {
					refFlagNotify(row, sc.rho, rows.Co, tau, w, h, old, concurrent)
				}
			}
			if active != nil && concurrent {
				// Back to idle, unless a wake arrived while c was in
				// progress: then c stays active for the next sweep.
				atomic.CompareAndSwapInt32(&active[c], flagInProgress, flagIdle)
			}
		}
		sc.updates += upd
		sc.visits += vis
		sc.skipped += skip
	}

	// Every sweep counts against the budget, so a bounded run can never
	// report Sweeps > MaxSweeps. The check sits at the loop head: when the
	// budget is exhausted the run stops unconverged and returns the
	// intermediate τ, which is still a valid approximation (τ ≥ κ,
	// Theorem 1).
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
		if res.sweep(opts, tau, gridCuts(len(cells)), scs, body) == 0 {
			res.Converged = true
			break
		}
	}
	res.Tau = tau
	if opts.Progress != nil {
		opts.Progress.finish(res)
	}
	return res
}

// hashSweeps is an OnSweep that appends the hash of τ after every sweep
// to sums.
func hashSweeps(sums *[]uint64) func(int, []int32) {
	return func(_ int, tau []int32) {
		h := fnv.New64a()
		for _, v := range tau {
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		*sums = append(*sums, h.Sum64())
	}
}

// tauHashes runs AND with notification at one thread, with the given
// wake-up pass, and returns the run and the hash of τ after every sweep.
func tauHashes(inst nucleus.Instance, notify notifier) (*Result, []uint64) {
	var sums []uint64
	res := and(inst, Options{Notification: true, OnSweep: hashSweeps(&sums)}, notify)
	return res, sums
}

// TestNotifyMatchesFullRowReference holds AND's wake-ups through the
// s-cliques above the new index to refNotify at one thread, on planted
// communities, RMAT and power-law graphs over stored truss, (3,4) and
// (2,4) rows: every sweep leaves the same τ and makes the same updates —
// a co-member only the skipped s-cliques would have woken could not have
// fallen — while the run visits no more s-cliques and skips no fewer
// cells. Over all inputs it must visit strictly fewer.
func TestNotifyMatchesFullRowReference(t *testing.T) {
	var gs []*graph.Graph
	for seed := int64(1); seed <= 3; seed++ {
		gs = append(gs,
			graph.PlantedCommunities(5, 30, 0.4, 150, seed),
			graph.RMAT(9, 8, 0.57, 0.19, 0.19, seed),
			graph.PowerLawCluster(300, 6, 0.6, seed))
	}
	var visits, refVisits int64
	for gi, g := range gs {
		for fam, inst := range map[string]nucleus.Instance{
			"truss": nucleus.NewFlatTruss(g, 1), "n34": nucleus.NewFlatN34(g, 1), "(2,4)": nucleus.NewFlat(g, 2, 4, 1),
		} {
			name := fmt.Sprintf("%s/g%d", fam, gi)
			got, gotSums := tauHashes(inst, notify)
			want, wantSums := tauHashes(inst, refNotify)
			if !got.Converged || !slices.Equal(gotSums, wantSums) {
				t.Fatalf("%s: converged=%v, per-sweep τ %x, reference %x", name, got.Converged, gotSums, wantSums)
			}
			if !slices.Equal(got.SweepUpdates, want.SweepUpdates) || got.Updates != want.Updates {
				t.Fatalf("%s: sweep updates %v (%d), reference %v (%d)", name, got.SweepUpdates, got.Updates, want.SweepUpdates, want.Updates)
			}
			if got.WorkVisits > want.WorkVisits || got.SkippedCells < want.SkippedCells {
				t.Fatalf("%s: visits %d skipped %d, reference visits %d skipped %d",
					name, got.WorkVisits, got.SkippedCells, want.WorkVisits, want.SkippedCells)
			}
			visits += got.WorkVisits
			refVisits += want.WorkVisits
		}
	}
	t.Logf("s-clique visits %d, full-row reference %d", visits, refVisits)
	if visits >= refVisits {
		t.Fatalf("s-clique visits %d, full-row reference %d: no wake-up was saved", visits, refVisits)
	}
}

// refSnd is the Snd that sndSweep replaced, kept as its oracle, verbatim
// up to its name, the id order it now builds for itself and the chunk
// bounds its body takes: AND's update per cell, against a copy of τ taken
// before every sweep.
func refSnd(inst nucleus.Instance, opts Options) *Result {
	n := inst.NumCells()
	tau := initialTau(inst.Degrees(), opts)
	prev := make([]int32, n)
	res := &Result{}
	cells := sweepCells(n, opts, nil)
	if cells == nil {
		cells = make([]int32, n)
		for i := range cells {
			cells[i] = int32(i)
		}
	}
	rows := inst.Rows()
	scs := newScratches(opts.threads(), tau, 0)
	body := func(lo, hi int, sc *sweepScratch) {
		var upd, vis int64
		for _, c := range cells[lo:hi] {
			h, v, _ := update(&rows, c, prev, sc, prev[c], false)
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
		updates := res.sweep(opts, tau, gridCuts(len(cells)), scs, body)
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

// TestSndMatchesReference holds Snd to refSnd run for run: the τ after
// every sweep, the sweeps, iterations, visits and updates (per sweep and
// in total), Converged and Stopped. Over stored rows of every co-arity
// (Core, truss, (3,4), (1,3), (1,4), (2,4)) and the discovered rows of
// Truss and N34, at 1, 2 and 4 threads, to convergence and at every budget
// from 1 to 8 sweeps, with a Subset, a warm InitialTau and a Stop.
func TestSndMatchesReference(t *testing.T) {
	gs := []*graph.Graph{
		graph.PlantedCommunities(4, 20, 0.4, 60, 3),
		graph.RMAT(8, 8, 0.57, 0.19, 0.19, 5),
	}
	rng := rand.New(rand.NewSource(7))
	stopped := 0
	for gi, g := range gs {
		for fam, inst := range map[string]nucleus.Instance{
			"core": nucleus.NewCore(g), "truss": nucleus.NewFlatTruss(g, 1), "n34": nucleus.NewFlatN34(g, 1),
			"Truss": nucleus.NewTruss(g), "N34": nucleus.NewN34(g),
			"(1,3)": nucleus.NewFlat(g, 1, 3, 1), "(1,4)": nucleus.NewFlat(g, 1, 4, 1), "(2,4)": nucleus.NewFlat(g, 2, 4, 1),
		} {
			n := inst.NumCells()
			var subset []int32
			for c := 0; c < n; c += 3 {
				subset = append(subset, int32(c))
			}
			start := warmStart(inst, peel.Run(inst).Kappa, rng)
			runs := map[string]func() Options{
				"subset": func() Options { return Options{Subset: subset} },
				"warm":   func() Options { return Options{InitialTau: start, Threads: 2} },
				"stop": func() Options {
					polls := 0
					return Options{Stop: func() bool { polls++; return polls == 2 }}
				},
			}
			for _, threads := range []int{1, 2, 4} {
				for budget := 0; budget <= 8; budget++ {
					runs[fmt.Sprintf("threads=%d/sweeps=%d", threads, budget)] = func() Options {
						return Options{Threads: threads, MaxSweeps: budget}
					}
				}
			}
			for run, opts := range runs {
				name := fmt.Sprintf("%s/g%d/%s", fam, gi, run)
				var gotSums, wantSums []uint64
				o := opts()
				o.OnSweep = hashSweeps(&gotSums)
				got := Snd(inst, o)
				o = opts()
				o.OnSweep = hashSweeps(&wantSums)
				want := refSnd(inst, o)
				if !slices.Equal(gotSums, wantSums) || !slices.Equal(got.Tau, want.Tau) {
					t.Fatalf("%s: per-sweep τ %x, reference %x", name, gotSums, wantSums)
				}
				if got.Sweeps != want.Sweeps || got.Iterations != want.Iterations || got.WorkVisits != want.WorkVisits ||
					got.Updates != want.Updates || !slices.Equal(got.SweepUpdates, want.SweepUpdates) {
					t.Fatalf("%s: sweeps %d iterations %d visits %d updates %d %v, reference %d %d %d %d %v", name,
						got.Sweeps, got.Iterations, got.WorkVisits, got.Updates, got.SweepUpdates,
						want.Sweeps, want.Iterations, want.WorkVisits, want.Updates, want.SweepUpdates)
				}
				if got.Converged != want.Converged || got.Stopped != want.Stopped {
					t.Fatalf("%s: converged %v stopped %v, reference %v %v", name, got.Converged, got.Stopped, want.Converged, want.Stopped)
				}
				if got.Stopped {
					stopped++
				}
			}
		}
	}
	if stopped == 0 {
		t.Fatal("no run was stopped, so Stop was not exercised")
	}
}
