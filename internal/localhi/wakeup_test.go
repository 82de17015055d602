package localhi

import (
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestNarrowWakeupsStress hunts the wake-up a concurrent run could lose: a
// co-member that is mid-update when its neighbor's index falls, or one
// that only an s-clique the fall skipped could reach (kernel.go, wake).
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

// TestWakeInProgress pins the wake decision in each flag state, through
// the row loop that calls wake, for a co-member whose index fell from
// old = 5 to h = 2. An idle cell keeps the narrow test h < τ(d) ≤ old. An
// in-progress cell wakes whenever h < τ(d), even above old: it may have
// read the old value. An active cell is left as it is. A cell that is
// woken gets the bit of its position, and only such a cell. Then wake
// itself on an idle cell whose τ the caller read before its update
// finished: the flag is idle again, so τ(d) is read anew and the narrow
// test decides.
func TestWakeInProgress(t *testing.T) {
	const h, old = 2, 5
	row := []int32{1} // cell 0's row: its one co-member is cell 1
	for _, tc := range []struct {
		flag, tau, want int32
	}{
		{flagIdle, 1, flagIdle},
		{flagIdle, 2, flagIdle},
		{flagIdle, 3, flagActive},
		{flagIdle, 5, flagActive},
		{flagIdle, 6, flagIdle},
		{flagInProgress, 1, flagInProgress},
		{flagInProgress, 2, flagInProgress},
		{flagInProgress, 3, flagActive},
		{flagInProgress, 6, flagActive},
		{flagActive, 1, flagActive},
		{flagActive, 3, flagActive},
		{flagActive, 6, flagActive},
	} {
		for _, par := range []bool{false, true} {
			tau, active := []int32{h, tc.tau}, []int32{flagIdle, tc.flag}
			w := &wakes{active: active, bits: make([]uint64, 1), pos: []int32{0, 1}}
			notify(row, nil, 1, tau, w, h, old, par)
			if active[1] != tc.want || active[0] != flagIdle || tau[1] != tc.tau {
				t.Errorf("flag %d τ(d) %d par=%v: flags %v τ %v after the wake, want d's flag %d, τ untouched",
					tc.flag, tc.tau, par, active, tau, tc.want)
			}
			var wantBits uint64 // d's bit (position 1), only if the wake made d active
			if tc.flag != flagActive && tc.want == flagActive {
				wantBits = 1 << 1
			}
			if w.bits[0] != wantBits {
				t.Errorf("flag %d τ(d) %d par=%v: bits %b after the wake, want %b", tc.flag, tc.tau, par, w.bits[0], wantBits)
			}
		}
	}
	for _, tc := range []struct {
		stale, tau, want int32
	}{
		{6, 3, flagActive}, // d fell to 3 ≤ old: its update read the old value
		{6, 2, flagIdle},   // d fell to h: nothing left to lower
		{7, 6, flagIdle},   // still above old: d never counted the co-member
	} {
		for _, par := range []bool{false, true} {
			tau, active := []int32{tc.tau}, []int32{flagIdle}
			if wake(tau, active, 0, tc.stale, h, old, par) {
				active[0] = flagActive
			}
			if active[0] != tc.want {
				t.Errorf("idle, read %d, τ(d) now %d, par=%v: flag %d, want %d", tc.stale, tc.tau, par, active[0], tc.want)
			}
		}
	}
}
