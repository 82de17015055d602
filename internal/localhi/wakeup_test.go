package localhi

import (
	"fmt"
	"math"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestNarrowWakeupsStress hunts the wake-up a concurrent run could lose: a
// co-member that is mid-update when its neighbor's index falls, or one
// that only an s-clique the fall skipped could reach (kernel.go, mustWake).
// Heavy-tailed graphs at 2, 4 and 8 workers make the first race as likely
// as this package can, on the graph's own CSR (co-arity 1) and on the
// stored truss and (3,4) rows; planted communities, whose dense blocks
// leave most s-cliques of a falling cell at or below its new index, do the
// same for the second. Wake-ups are exact, so no sweep certifies anything:
// every run must end on its first zero-update sweep, with τ equal to
// peeling's κ. Run repeatedly under -race in CI.
func TestNarrowWakeupsStress(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	rmat := func(scale int, seed int64) *graph.Graph { return graph.RMAT(scale, 8, 0.57, 0.19, 0.19, seed) }
	planted := func(seed int64) *graph.Graph { return graph.PlantedCommunities(6, 40, 0.3, 240, seed) }
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, tc := range []struct {
			name string
			inst nucleus.Instance
		}{
			{"core", nucleus.NewCore(rmat(12, seed))},
			{"truss", nucleus.NewFlatTruss(rmat(10, seed), 1)},
			{"n34", nucleus.NewFlatN34(rmat(9, seed), 1)},
			{"planted truss", nucleus.NewFlatTruss(planted(seed), 1)},
			{"planted n34", nucleus.NewFlatN34(planted(seed), 1)},
		} {
			want := peel.Run(tc.inst).Kappa
			for _, threads := range []int{2, 4, 8} {
				res := And(tc.inst, Options{Threads: threads, Notification: true})
				if !res.Converged || !equalInt32(res.Tau, want) {
					t.Fatalf("%s seed %d threads %d: converged=%v, τ differs from peeling", tc.name, seed, threads, res.Converged)
				}
				for i, u := range res.SweepUpdates {
					if (u == 0) != (i == len(res.SweepUpdates)-1) {
						t.Fatalf("%s seed %d threads %d: sweep updates %v, want the run to end on its first zero",
							tc.name, seed, threads, res.SweepUpdates)
					}
				}
			}
		}
	}
}

// TestWakeInProgress pins the wake decision, through the row loop that
// reads each co-member once, for a co-member d whose neighbor's index fell
// from old = 5 to h = 2: τ(d) below (1, and h itself), inside (3, and old
// itself) and above (6) the band (h, old], each unmarked and marked in
// progress, with d's bit clear, set, or d outside the order (pos −1). An
// unmarked d wakes iff its τ is inside the band; a marked one whenever its
// τ is above h: it may have read the old value. A wake sets d's bit and
// nothing else; one that finds the bit set or d without a position writes
// nothing, and τ is never touched. Then the rule itself at the ends of the
// int32 range, where its unsigned compare could wrap.
func TestWakeInProgress(t *testing.T) {
	const h, old = 2, 5
	row := []int32{1} // cell 0's row: its one co-member is cell 1
	for _, tau := range []int32{1, 2, 3, 5, 6} {
		for _, marked := range []bool{false, true} {
			wantWake := h < tau && tau <= old || marked && tau > h
			raw := tau
			if marked {
				raw |= math.MinInt32
			}
			for _, bit := range []string{"clear", "set", "no position"} {
				for _, par := range []bool{false, true} {
					w := &wakes{bits: make([]uint64, 1), pos: []int32{0, 1}}
					var wantBits uint64
					switch bit {
					case "set":
						w.bits[0], wantBits = 1<<1, 1<<1
					case "no position":
						w.pos[1] = -1
					default:
						if wantWake {
							wantBits = 1 << 1
						}
					}
					taus := []int32{h, raw}
					notify(row, nil, 1, taus, w, h, old, par)
					if w.bits[0] != wantBits || taus[0] != h || taus[1] != raw {
						t.Errorf("τ(d) %d marked=%v bit %s par=%v: bits %b τ %v after the wake, want bits %b, τ untouched",
							tau, marked, bit, par, w.bits[0], taus, wantBits)
					}
				}
			}
		}
	}
	for _, tc := range []struct {
		t, h, old int32
		want      bool
	}{
		{math.MinInt32, 0, math.MaxInt32, false},    // marked at 0: not above h
		{math.MinInt32 | 1, 0, math.MaxInt32, true}, // marked above h
		{math.MaxInt32, 0, math.MaxInt32, true},     // old itself
		{math.MaxInt32, math.MaxInt32 - 1, math.MaxInt32, true},
		{0, 0, math.MaxInt32, false}, // h itself
		{math.MaxInt32, 0, math.MaxInt32 - 1, false},
		{-1, 0, math.MaxInt32, true}, // marked at MaxInt32
	} {
		if got := mustWake(tc.t, tc.h, tc.old); got != tc.want {
			t.Errorf("mustWake(%d, %d, %d) = %v, want %v", tc.t, tc.h, tc.old, got, tc.want)
		}
	}
}

// TestMarkNeverEscapesSweep: the in-progress mark in τ's sign bit lives
// only inside a sweep. Concurrent runs with notification, at 2, 4 and 8
// workers, on the graph's CSR and on stored truss and (3,4) rows, to
// convergence and under a two-sweep budget, must show only non-negative τ
// to every OnSweep call, in every Progress snapshot and in Result.Tau. Run
// repeatedly under -race in CI.
func TestMarkNeverEscapesSweep(t *testing.T) {
	rmat := func(scale int) *graph.Graph { return graph.RMAT(scale, 8, 0.57, 0.19, 0.19, 3) }
	marked := func(tau []int32) int {
		for c, v := range tau {
			if v < 0 {
				return c
			}
		}
		return -1
	}
	for _, tc := range []struct {
		name string
		inst nucleus.Instance
	}{
		{"core", nucleus.NewCore(rmat(11))},
		{"truss", nucleus.NewFlatTruss(rmat(9), 1)},
		{"n34", nucleus.NewFlatN34(rmat(8), 1)},
	} {
		for _, threads := range []int{2, 4, 8} {
			for _, budget := range []int{0, 2} {
				name := fmt.Sprintf("%s/threads=%d/sweeps=%d", tc.name, threads, budget)
				sweeps := 0
				opts := Options{Threads: threads, Notification: true, MaxSweeps: budget}
				opts.OnSweep = func(sweep int, tau []int32) {
					sweeps++
					if c := marked(tau); c >= 0 {
						t.Errorf("%s: sweep %d shows cell %d at τ %d", name, sweep, c, tau[c])
					}
				}
				snaps, res := collectSnapshots(t, And, tc.inst, opts)
				if sweeps == 0 || len(snaps) == 0 {
					t.Fatalf("%s: %d sweeps observed, %d snapshots", name, sweeps, len(snaps))
				}
				for _, s := range snaps {
					if c := marked(s.Tau); c >= 0 {
						t.Errorf("%s: snapshot of sweep %d shows cell %d at τ %d", name, s.Sweep, c, s.Tau[c])
					}
				}
				if c := marked(res.Tau); c >= 0 {
					t.Errorf("%s: Result.Tau shows cell %d at τ %d", name, c, res.Tau[c])
				}
			}
		}
	}
}
