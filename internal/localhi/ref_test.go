package localhi

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// refNotify is the wake-up pass notify replaced, kept as its oracle,
// verbatim up to its name and the ρ record it ignores: after a fall, every
// co-member of every s-clique of the row is read, whatever ρ the kernel
// read for the s-clique.
func refNotify(row, _ []int32, _ int, tau, active []int32, h, old int32, par bool) {
	for _, d := range row {
		if t := load(par, tau, d); t > h {
			wake(tau, active, d, t, h, old, par)
		}
	}
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
		updates := res.sweep(opts, tau, len(cells), scs, body)
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
