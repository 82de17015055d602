package localhi

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

// discoveredCases pairs each stored instance with its twin that hands out
// the very same rows as discovered ones, copied into the worker's buffer
// (nucleustest.Discovered): the two sides of the §5 fork over one row
// order, so runs must agree visit for visit. Stored truss and (3,4) rows
// list triangles / 4-cliques in emission order, not in the order the
// on-the-fly instances find them, so visits are comparable only over the
// same rows; for k-core the graph's CSR is the stored incidence. (Truss
// and N34 rows == Flat's is TestDiscoveredRowsMatchStored in
// internal/nucleus.)
func discoveredCases(t *testing.T) []struct {
	name       string
	discovered nucleus.Instance
	stored     nucleus.Instance
} {
	t.Helper()
	gs := []*graph.Graph{
		graph.Figure2(),
		graph.Complete(7),
		graph.PlantedCommunities(3, 14, 0.5, 40, 11),
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3; i++ {
		n := 40 + rng.Intn(40)
		gs = append(gs, graph.GnM(n, 4*n, rng.Int63()))
	}
	var out []struct {
		name       string
		discovered nucleus.Instance
		stored     nucleus.Instance
	}
	for gi, g := range gs {
		for fam, stored := range map[string]nucleus.Instance{
			"core": nucleus.NewCore(g), "truss": nucleus.NewFlatTruss(g, 2), "n34": nucleus.NewFlatN34(g, 2),
		} {
			out = append(out, struct {
				name       string
				discovered nucleus.Instance
				stored     nucleus.Instance
			}{fmt.Sprintf("%s/g%d", fam, gi), nucleustest.Discovered(stored), stored})
		}
	}
	return out
}

// TestDiscoveredRowsMatchStored demands that a run over discovered rows
// computes exactly what one over the same rows stored does — τ,
// convergence, and the WorkVisits cost accounting — across the option
// space (Snd/And × Notification × threads × bounded sweeps).
func TestDiscoveredRowsMatchStored(t *testing.T) {
	optSets := []Options{
		{},
		{Notification: true},
		{Threads: 4},
		{Threads: 4, Notification: true},
		{MaxSweeps: 2},
	}
	for _, tc := range discoveredCases(t) {
		for oi, opts := range optSets {
			for algName, run := range map[string]func(nucleus.Instance, Options) *Result{
				"snd": Snd, "and": And,
			} {
				want := run(tc.stored, opts)
				got := run(tc.discovered, opts)
				if len(want.Tau) != len(got.Tau) {
					t.Fatalf("%s %s opts %d: τ lengths differ", tc.name, algName, oi)
				}
				for c := range want.Tau {
					if want.Tau[c] != got.Tau[c] {
						t.Fatalf("%s %s opts %d cell %d: τ %d vs %d",
							tc.name, algName, oi, c, want.Tau[c], got.Tau[c])
					}
				}
				if want.Converged != got.Converged {
					t.Fatalf("%s %s opts %d: converged %v vs %v",
						tc.name, algName, oi, want.Converged, got.Converged)
				}
				// Deterministic runs must also agree on the visit count:
				// discovering a row changes its cost, never the set of
				// visits, early exits included. (Parallel And is
				// non-deterministic; compare the sequential runs.)
				if opts.Threads <= 1 {
					if want.WorkVisits != got.WorkVisits {
						t.Fatalf("%s %s opts %d: WorkVisits %d vs %d",
							tc.name, algName, oi, want.WorkVisits, got.WorkVisits)
					}
				}
			}
		}
	}
}

// TestFusedSubsetAndWarmStart covers the query-driven Subset path and the
// InitialTau warm start over stored rows against discovered ones.
func TestFusedSubsetAndWarmStart(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	generic, indexed := nucleus.NewTruss(g), nucleus.NewFlatTruss(g, 2)

	subset := []int32{0, 1, 2, 10, 11, 12}
	w := And(generic, Options{Subset: subset, Notification: true})
	got := And(indexed, Options{Subset: subset, Notification: true})
	for c := range w.Tau {
		if w.Tau[c] != got.Tau[c] {
			t.Fatalf("subset cell %d: τ %d vs %d", c, w.Tau[c], got.Tau[c])
		}
	}

	exact := Snd(generic, Options{}).Tau
	warm := Snd(indexed, Options{InitialTau: exact})
	for c := range exact {
		if warm.Tau[c] != exact[c] {
			t.Fatalf("warm start cell %d: τ %d vs κ %d", c, warm.Tau[c], exact[c])
		}
	}
	if warm.Sweeps > 2 {
		t.Fatalf("warm start from κ took %d sweeps, want <= 2", warm.Sweeps)
	}
}

// mallocs runs body once to warm up, then returns the heap allocations of
// ten more runs in total. Unlike testing.AllocsPerRun it neither averages
// nor truncates, so a single allocation in ten runs — a slice that grows
// now and then — is reported. As in AllocsPerRun, GOMAXPROCS is 1
// meanwhile, so no other goroutine runs beside the body.
func mallocs(body func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		body()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// sweepAllocs runs AND's first sweep with notification over every cell of
// inst — each fall wakes the cell's co-members through the s-cliques the
// kernel recorded above it — with the co-members' bits all clear and all
// set, and fails if any of it allocates: once the worker's row buffer has
// grown, which the warm-up run of mallocs does. The scratch is AND's, its
// rho buffer sized once for the run. Then it holds one bitmap sweep
// (andSweep over every position, every bit set, from the s-degrees) and
// SND's first sweep (sndSweep, from the s-degrees, with the rho buffer Snd
// sizes) to the same count, and demands that some cell fell in each.
func sweepAllocs(t *testing.T, name string, inst nucleus.Instance) {
	t.Helper()
	rows := inst.Rows()
	tau := inst.Degrees()
	var longest int32
	if rows.Co > 1 {
		longest = maxOf(tau)
	}
	sc := &newScratches(1, tau, longest)[0]
	n := int32(inst.NumCells())
	cells := AscendingOrder(tau)
	w := newWakes(int(n), cells, tau)
	falls := 0
	for _, par := range []bool{false, true} {
		for _, set := range []bool{false, true} {
			allocs := mallocs(func() {
				clear(w.bits)
				for p := 0; set && p < len(cells); p++ {
					w.bits[p>>6] |= 1 << (p & 63)
				}
				falls = 0
				for c := int32(0); c < n; c++ {
					if h, _, row := update(&rows, c, tau, sc, tau[c], par); h < tau[c] {
						notify(row, sc.rho, rows.Co, tau, w, h, tau[c], par)
						falls++
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("%s par=%v bits set=%v: sweep allocated %d times in 10 runs, want 0", name, par, set, allocs)
			}
			if falls == 0 {
				t.Fatalf("%s: no cell fell in the first sweep, so no wake-up was exercised", name)
			}
		}

		cur := make([]int32, n)
		allocs := mallocs(func() {
			copy(cur, tau)
			for p := range cells {
				w.bits[p>>6] |= 1 << (p & 63)
			}
			sc.updates = 0
			andSweep(&rows, cells, 0, int(n), cur, w, sc, notify, par)
		})
		if allocs != 0 {
			t.Fatalf("%s par=%v: bitmap sweep allocated %d times in 10 runs, want 0", name, par, allocs)
		}
		if sc.updates == 0 {
			t.Fatalf("%s par=%v: no cell fell in the bitmap sweep", name, par)
		}
	}

	snd := &newScratches(1, tau, maxOf(tau))[0]
	next := make([]int32, n)
	var updates int64
	if allocs := mallocs(func() { updates, _ = sndSweep(&rows, nil, 0, int(n), tau, next, snd) }); allocs != 0 {
		t.Fatalf("%s: SND sweep allocated %d times in 10 runs, want 0", name, allocs)
	}
	if updates == 0 {
		t.Fatalf("%s: no cell fell in SND's first sweep, so no fall was tallied", name)
	}
}

// TestFusedKernelZeroAlloc proves that a full sweep over stored rows, and
// the wake-ups of its falls, performs zero heap allocations, and so does
// SND's sweep over the same rows — on truss and (3,4) indexes (co-arity 2
// and 3, the general row loop, which records ρ per s-clique) and on k-core
// (co-arity 1, the graph's own CSR).
func TestFusedKernelZeroAlloc(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	for name, inst := range map[string]nucleus.Instance{
		"truss": nucleus.NewFlatTruss(g, 1), "n34": nucleus.NewFlatN34(g, 1), "core": nucleus.NewCore(g),
	} {
		sweepAllocs(t, name, inst)
	}
}

// TestDiscoveredRowsZeroAlloc is the same claim for discovered rows, after
// warm-up: Truss and N34 find each row into the worker's buffer, which
// stops growing once it holds the longest row, and neither the discovery
// nor the kernel allocates per call.
func TestDiscoveredRowsZeroAlloc(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	for name, inst := range map[string]nucleus.Instance{
		"truss": nucleus.NewTruss(g), "n34": nucleus.NewN34(g), "hyper(2,4)": nucleustest.NewHyper(g, 2, 4),
	} {
		sweepAllocs(t, name, inst)
	}
}
