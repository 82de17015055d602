package localhi

import (
	"math/rand"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// warmStart draws a start uniformly in [κ, s-degree] per cell: the whole
// range Options.InitialTau admits.
func warmStart(inst nucleus.Instance, kappa []int32, rng *rand.Rand) []int32 {
	start := inst.Degrees()
	for c, d := range start {
		start[c] = kappa[c] + int32(rng.Intn(int(d-kappa[c])+1))
	}
	return start
}

// checkLocalRuns runs Snd and And (with notification) on inst from start
// and reports the first breach of what a run promises from any start ≥ κ:
// τ after every sweep is pointwise at most τ before it (the run is
// τ ← min(τ, U(τ)), so ROADMAP's "anytime τ is pointwise monotone" and
// Progress's non-increasing MaxTau/TauSum hold from a warm start too), and
// the run converges to peeling's κ.
func checkLocalRuns(t *testing.T, name string, inst nucleus.Instance, kappa, start []int32, threads int) {
	t.Helper()
	for alg, run := range map[string]func(nucleus.Instance, Options) *Result{"snd": Snd, "and": And} {
		prev := append([]int32(nil), start...)
		rose := -1
		res := run(inst, Options{
			InitialTau:   start,
			Threads:      threads,
			Notification: true,
			OnSweep: func(_ int, tau []int32) {
				for c := range tau {
					if tau[c] > prev[c] && rose < 0 {
						rose = c
					}
				}
				copy(prev, tau)
			},
		})
		if rose >= 0 {
			t.Fatalf("%s %s threads=%d: τ of cell %d rose during the run (start %v)", name, alg, threads, rose, start)
		}
		if !res.Converged || !equalInt32(res.Tau, kappa) {
			t.Fatalf("%s %s threads=%d: converged=%v τ=%v, peel κ=%v (start %v)",
				name, alg, threads, res.Converged, res.Tau, kappa, start)
		}
	}
}

// TestWarmStartNeverRaisesTau: from any start in [κ, s-degree], over
// stored or discovered rows and at any thread count, no sweep raises any τ and the run lands
// on κ. An unclamped τ ← H from such a start does raise some.
func TestWarmStartNeverRaisesTau(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		g := graph.GnM(12, 26, seed)
		rng := rand.New(rand.NewSource(seed))
		for i, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewFlatTruss(g, 1), nucleus.NewTruss(g)} {
			name := []string{"core", "flat-truss", "truss"}[i]
			kappa := peel.Run(inst).Kappa
			start := warmStart(inst, kappa, rng)
			for _, threads := range []int{1, 4} {
				checkLocalRuns(t, name, inst, kappa, start, threads)
			}
		}
	}
}

// FuzzLocalKernels drives the sweep kernel over arbitrary small graphs:
// bytes become an edge list, sel picks the family (core, truss, (3,4)),
// stored or discovered rows (the on-the-fly instance; for core the CSR
// discovered), and 1 or 4 threads, and warm seeds the start in
// [κ, s-degree]. Every run must satisfy checkLocalRuns, and sequential Snd
// must pay the same visits over stored rows and over the same rows
// discovered.
func FuzzLocalKernels(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4}, uint8(0), int64(1)) // triangle with a tail
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 3}, uint8(3), int64(2))
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4}, uint8(10), int64(3))
	f.Add([]byte{}, uint8(7), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, warm int64) {
		// Ids masked to 4 bits and the edge count capped keep the (3,4)
		// instances cheap for adversarial inputs.
		var edges [][2]uint32
		for i := 0; i+1 < len(data) && len(edges) < 64; i += 2 {
			edges = append(edges, [2]uint32{uint32(data[i] % 16), uint32(data[i+1] % 16)})
		}
		g := graph.Build(-1, edges)
		var stored, onTheFly nucleus.Instance
		switch sel % 3 {
		case 0:
			stored, onTheFly = nucleus.NewCore(g), nucleustest.Discovered(nucleus.NewCore(g))
		case 1:
			stored, onTheFly = nucleus.NewFlatTruss(g, 1), nucleus.NewTruss(g)
		default:
			stored, onTheFly = nucleus.NewFlatN34(g, 1), nucleus.NewN34(g)
		}
		inst, name := stored, "stored"
		if sel/3%2 == 1 {
			inst, name = onTheFly, "on-the-fly"
		}
		threads := 1 + 3*int(sel/6%2)

		kappa := peel.Run(inst).Kappa
		start := warmStart(inst, kappa, rand.New(rand.NewSource(warm)))
		checkLocalRuns(t, name, inst, kappa, start, threads)

		fromStore := Snd(stored, Options{InitialTau: start})
		found := Snd(nucleustest.Discovered(stored), Options{InitialTau: start})
		if fromStore.WorkVisits != found.WorkVisits || fromStore.Sweeps != found.Sweeps {
			t.Fatalf("(%d,%d) sequential Snd: stored rows %d visits in %d sweeps, discovered %d in %d",
				inst.R(), inst.S(), fromStore.WorkVisits, fromStore.Sweeps, found.WorkVisits, found.Sweeps)
		}
	})
}
