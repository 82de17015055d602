package localhi

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// referenceCase is one instance the active-set tests run And and refAnd
// on, with the runs' per-cell inputs drawn for it.
type referenceCase struct {
	name   string
	inst   nucleus.Instance
	order  []int32 // a random permutation of the cells
	subset []int32 // a random set of distinct cells, in random order
	start  []int32 // a warm start in [κ, s-degree]
	kappa  []int32
}

// referenceCases draws the cases for graph g, the first count of: the
// graph's CSR, stored truss and (3,4) rows, the discovered rows of Truss
// and N34, and stored (1,3) and (2,4) rows.
func referenceCases(g *graph.Graph, gi int, rng *rand.Rand, count int) []referenceCase {
	var out []referenceCase
	for _, fam := range []struct {
		name string
		inst func() nucleus.Instance
	}{
		{"core", func() nucleus.Instance { return nucleus.NewCore(g) }},
		{"truss", func() nucleus.Instance { return nucleus.NewFlatTruss(g, 1) }},
		{"n34", func() nucleus.Instance { return nucleus.NewFlatN34(g, 1) }},
		{"Truss", func() nucleus.Instance { return nucleus.NewTruss(g) }},
		{"N34", func() nucleus.Instance { return nucleus.NewN34(g) }},
		{"(1,3)", func() nucleus.Instance { return nucleus.NewFlat(g, 1, 3, 1) }},
		{"(2,4)", func() nucleus.Instance { return nucleus.NewFlat(g, 2, 4, 1) }},
	}[:count] {
		inst := fam.inst()
		n := inst.NumCells()
		kappa := peel.Run(inst).Kappa
		order := make([]int32, n)
		for i, c := range rng.Perm(n) {
			order[i] = int32(c)
		}
		out = append(out, referenceCase{
			name:   fmt.Sprintf("%s/g%d", fam.name, gi),
			inst:   inst,
			order:  order,
			subset: slices.Clone(order[:n/3]),
			start:  warmStart(inst, kappa, rng),
			kappa:  kappa,
		})
	}
	return out
}

// runBoth runs And and refAnd with opts and the same notification pass,
// each with its own per-sweep τ hashes.
func runBoth(inst nucleus.Instance, opts Options) (got, want *Result, gotSums, wantSums []uint64) {
	opts.OnSweep = hashSweeps(&gotSums)
	got = And(inst, opts)
	opts.OnSweep = hashSweeps(&wantSums)
	want = refAnd(inst, opts)
	return got, want, gotSums, wantSums
}

// sameRun reports how a one-thread And run differs from refAnd's, or "":
// the τ after every sweep, the sweeps, iterations and updates (per sweep
// and in total), Converged, and at most the reference's s-clique visits.
func sameRun(got, want *Result, gotSums, wantSums []uint64) string {
	switch {
	case !slices.Equal(gotSums, wantSums) || !slices.Equal(got.Tau, want.Tau):
		return fmt.Sprintf("per-sweep τ %x, reference %x", gotSums, wantSums)
	case got.Sweeps != want.Sweeps || got.Iterations != want.Iterations || got.Updates != want.Updates ||
		!slices.Equal(got.SweepUpdates, want.SweepUpdates) || got.Converged != want.Converged:
		return fmt.Sprintf("sweeps %d iterations %d updates %d %v converged %v, reference %d %d %d %v %v",
			got.Sweeps, got.Iterations, got.Updates, got.SweepUpdates, got.Converged,
			want.Sweeps, want.Iterations, want.Updates, want.SweepUpdates, want.Converged)
	case got.WorkVisits > want.WorkVisits:
		return fmt.Sprintf("visits %d, reference %d", got.WorkVisits, want.WorkVisits)
	}
	return ""
}

// TestAndMatchesReference holds And to refAnd, the flag-scanning loop it
// replaced, run for run at one thread: with and without notification, on
// every kind of row (the graph's CSR, stored truss and (3,4), discovered
// Truss and N34, stored (1,3) and (2,4)), at every budget from 0 to 8
// sweeps, each with a random Order, a random Subset and a warm InitialTau.
// Over all runs with notification the active set must visit strictly
// fewer s-cliques: the cells that start at τ ≤ 1 are never evaluated.
func TestAndMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	gs := []*graph.Graph{
		graph.PlantedCommunities(4, 20, 0.4, 60, 3),
		graph.RMAT(8, 8, 0.57, 0.19, 0.19, 5),
	}
	var visits, refVisits int64
	for gi, g := range gs {
		for _, tc := range referenceCases(g, gi, rng, 7) {
			for budget := 0; budget <= 8; budget++ {
				for run, opts := range map[string]Options{
					"order":  {Order: tc.order},
					"subset": {Subset: tc.subset},
					"warm":   {InitialTau: tc.start},
				} {
					for _, notification := range []bool{false, true} {
						opts.MaxSweeps, opts.Notification = budget, notification
						got, want, gotSums, wantSums := runBoth(tc.inst, opts)
						if diff := sameRun(got, want, gotSums, wantSums); diff != "" {
							t.Fatalf("%s/%s/sweeps=%d/notification=%v: %s", tc.name, run, budget, notification, diff)
						}
						if notification {
							visits += got.WorkVisits
							refVisits += want.WorkVisits
						}
					}
				}
			}
		}
	}
	t.Logf("s-clique visits %d, reference %d", visits, refVisits)
	if visits >= refVisits {
		t.Fatalf("s-clique visits %d, reference %d: the active set saved nothing", visits, refVisits)
	}
}

// TestBitmapSweepStress runs the active-set sweep concurrently, at 2, 4 and
// 8 workers, from a random Order, a warm InitialTau and over a random
// Subset, on heavy-tailed and planted graphs: no sweep raises a τ, every
// run ends on its first zero-update sweep, a full run lands on peeling's
// κ and a Subset run on the τ the one-thread reference reaches (the
// restricted iteration has one limit below its start). Run repeatedly
// under -race in CI.
func TestBitmapSweepStress(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	rng := rand.New(rand.NewSource(43))
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for gi, g := range []*graph.Graph{graph.RMAT(10, 8, 0.57, 0.19, 0.19, seed), graph.PlantedCommunities(4, 30, 0.4, 120, seed)} {
			for _, tc := range referenceCases(g, gi, rng, 3) {
				subsetTau := refAnd(tc.inst, Options{Subset: tc.subset, Notification: true}).Tau
				for run, opts := range map[string]Options{
					"order":  {Order: tc.order},
					"subset": {Subset: tc.subset},
					"warm":   {InitialTau: tc.start},
				} {
					want := tc.kappa
					if opts.Subset != nil {
						want = subsetTau
					}
					for _, threads := range []int{2, 4, 8} {
						name := fmt.Sprintf("%s/seed%d/%s/threads=%d", tc.name, seed, run, threads)
						opts.Threads, opts.Notification = threads, true
						checkFallingRun(t, name, tc.inst, opts, want)
					}
				}
			}
		}
	}
}

// checkFallingRun runs And with opts and fails unless no sweep raises a τ,
// the run ends converged on its first zero-update sweep, and τ is want.
func checkFallingRun(t *testing.T, name string, inst nucleus.Instance, opts Options, want []int32) {
	t.Helper()
	prev := inst.Degrees()
	if opts.InitialTau != nil {
		prev = initialTau(prev, Options{InitialTau: opts.InitialTau})
	}
	rose := -1
	opts.OnSweep = func(_ int, tau []int32) {
		for c := range tau {
			if tau[c] > prev[c] && rose < 0 {
				rose = c
			}
		}
		copy(prev, tau)
	}
	res := And(inst, opts)
	if rose >= 0 {
		t.Fatalf("%s: τ of cell %d rose during the run", name, rose)
	}
	if !res.Converged || !slices.Equal(res.Tau, want) {
		t.Fatalf("%s: converged=%v, τ differs from %v", name, res.Converged, want)
	}
	for i, u := range res.SweepUpdates {
		if (u == 0) != (i == len(res.SweepUpdates)-1) {
			t.Fatalf("%s: sweep updates %v, want the run to end on its first zero", name, res.SweepUpdates)
		}
	}
}

// TestSubsetMustListDistinctCells: a Subset is checked like an Order
// before any sweep runs. A cell listed twice could be evaluated by two
// workers at once, and the later store of its τ could undo the lower
// one; one out of range has no τ. Both panic with a localhi: message that
// names the cell, in Snd and in And.
func TestSubsetMustListDistinctCells(t *testing.T) {
	inst := nucleus.NewCore(graph.Build(5, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}}))
	for _, tc := range []struct {
		name   string
		subset []int32
		panic  string
	}{
		{"duplicate", []int32{3, 0, 3}, "cell 3 is out of range or listed twice"},
		{"out of range", []int32{1, 5}, "cell 5 is out of range or listed twice"},
		{"negative", []int32{-2}, "cell -2 is out of range or listed twice"},
	} {
		for algName, run := range map[string]func(nucleus.Instance, Options) *Result{"snd": Snd, "and": And} {
			for _, threads := range []int{1, 4} {
				msg := func() (msg string) {
					defer func() {
						if r := recover(); r != nil {
							msg, _ = r.(string)
						}
					}()
					run(inst, Options{Subset: tc.subset, Threads: threads, Notification: true})
					return ""
				}()
				if !strings.HasPrefix(msg, "localhi: Subset") || !strings.Contains(msg, tc.panic) {
					t.Errorf("%s %s threads=%d: panic %q, want a localhi: Subset message containing %q", tc.name, algName, threads, msg, tc.panic)
				}
			}
		}
	}
}

// TestWakeOutsideSubsetMarksNothing: a cell outside a Subset has no
// position in the order, so no fall may wake it. Every cell of a graph
// falls to 0 in turn, waking its co-members through every s-clique; the
// bits set afterwards are exactly those of the subset cells some fall's
// band (0, old] held (a wake of an outside cell would index the bitmap at
// −1), and none past the subset's last position.
func TestWakeOutsideSubsetMarksNothing(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	for name, inst := range map[string]nucleus.Instance{
		"core": nucleus.NewCore(g), "truss": nucleus.NewFlatTruss(g, 1), "n34": nucleus.NewFlatN34(g, 1),
	} {
		rows := inst.Rows()
		tau := inst.Degrees()
		var subset []int32
		for c := int32(0); c < int32(len(tau)); c += 3 {
			subset = append(subset, c)
		}
		for _, par := range []bool{false, true} {
			w := newWakes(len(tau), subset, tau)
			clear(w.bits)
			want := make([]bool, len(tau))
			rhos := make([]int32, maxOf(tau))
			var buf []int32
			for c := int32(0); c < int32(len(tau)); c++ {
				row := rows.Row(c, &buf)
				for i := range rhos {
					rhos[i] = tau[c] // every s-clique above the fall
				}
				notify(row, rhos, rows.Co, tau, w, 0, tau[c], par)
				for _, d := range row {
					want[d] = want[d] || 0 < tau[d] && tau[d] <= tau[c]
				}
			}
			woken := 0
			for p, c := range subset {
				bit := w.bits[p>>6]>>(p&63)&1 == 1
				if bit != want[c] {
					t.Fatalf("%s par=%v: subset cell %d at position %d has bit %v, want %v", name, par, c, p, bit, want[c])
				}
				if bit {
					woken++
				}
			}
			if woken == 0 {
				t.Fatalf("%s par=%v: no subset cell was woken", name, par)
			}
			if last := len(subset) - 1; w.bits[last>>6]>>(last&63)>>1 != 0 {
				t.Fatalf("%s par=%v: bits %b set past position %d", name, par, w.bits[last>>6], last)
			}
		}
	}
}

// FuzzAndSweep drives the active-set sweep over arbitrary small graphs:
// bytes become an edge list, sel picks the rows (the graph's CSR, stored
// truss and (3,4), stored (1,3)), the run's input (a random Order, Subset
// or warm InitialTau, drawn from seed) and 1 to 4 threads. At one thread
// the run must be refAnd's, sweep for sweep; at any thread count no sweep
// raises a τ and a converged run lands on peeling's κ, or for a Subset on
// the one-thread reference's τ.
func FuzzAndSweep(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4}, uint8(0), int64(1))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 3}, uint8(5), int64(2))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}, uint8(14), int64(3))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 4, 5, 5, 6}, uint8(39), int64(4))
	f.Add([]byte{}, uint8(7), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, seed int64) {
		// Ids masked to 4 bits and the edge count capped keep the (3,4)
		// and (1,3) instances cheap for adversarial inputs.
		var edges [][2]uint32
		for i := 0; i+1 < len(data) && len(edges) < 64; i += 2 {
			edges = append(edges, [2]uint32{uint32(data[i] % 16), uint32(data[i+1] % 16)})
		}
		g := graph.Build(-1, edges)
		var inst nucleus.Instance
		switch sel % 4 {
		case 0:
			inst = nucleus.NewCore(g)
		case 1:
			inst = nucleus.NewFlatTruss(g, 1)
		case 2:
			inst = nucleus.NewFlatN34(g, 1)
		default:
			inst = nucleus.NewFlat(g, 1, 3, 1)
		}
		threads := 1 + int(sel/12%4)
		rng := rand.New(rand.NewSource(seed))
		n := inst.NumCells()
		kappa := peel.Run(inst).Kappa
		order := make([]int32, n)
		for i, c := range rng.Perm(n) {
			order[i] = int32(c)
		}
		opts := Options{Notification: true}
		switch sel / 4 % 3 {
		case 0:
			opts.Order = order
		case 1:
			opts.Subset = order[:rng.Intn(n+1)]
		default:
			opts.InitialTau = warmStart(inst, kappa, rng)
		}

		got, want, gotSums, wantSums := runBoth(inst, opts)
		if diff := sameRun(got, want, gotSums, wantSums); diff != "" {
			t.Fatalf("(%d,%d) one thread: %s", inst.R(), inst.S(), diff)
		}
		if opts.Subset == nil && !slices.Equal(got.Tau, kappa) {
			t.Fatalf("(%d,%d) one thread: τ %v, peel κ %v", inst.R(), inst.S(), got.Tau, kappa)
		}
		if threads > 1 {
			opts.Threads = threads
			checkFallingRun(t, fmt.Sprintf("(%d,%d) threads=%d", inst.R(), inst.S(), threads), inst, opts, want.Tau)
		}
	})
}
