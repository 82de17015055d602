package localhi

import (
	"fmt"
	"math/rand"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// hideFlat wraps an instance so that only the Instance methods show: the
// wrapper hides FlatIncidence, so a run takes the generic kernel over
// the very same rows.
func hideFlat(inst nucleus.Instance) nucleus.Instance {
	return struct{ nucleus.Instance }{inst}
}

// fusedCases pairs an instance that runs the generic closure path with a
// twin that runs the fused flat path over the same rows: the stored
// instance against itself with the flat arrays hidden. Stored truss and
// (3,4) rows list triangles / 4-cliques in emission order, not in the order
// the on-the-fly instances find them, so visits are comparable only over
// the same rows; for k-core the graph's CSR is the stored incidence.
// (Stored == on-the-fly is TestIndexedTrussMatchesTruss and
// TestIndexedN34MatchesN34 in internal/nucleus.)
func fusedCases(t *testing.T) []struct {
	name    string
	generic nucleus.Instance
	indexed nucleus.Instance
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
		name    string
		generic nucleus.Instance
		indexed nucleus.Instance
	}
	for gi, g := range gs {
		out = append(out, struct {
			name    string
			generic nucleus.Instance
			indexed nucleus.Instance
		}{fmt.Sprintf("core/g%d", gi), hideFlat(nucleus.NewCore(g)), nucleus.NewCore(g)})
		out = append(out, struct {
			name    string
			generic nucleus.Instance
			indexed nucleus.Instance
		}{fmt.Sprintf("truss/g%d", gi), hideFlat(nucleus.NewFlatTruss(g, 2)), nucleus.NewFlatTruss(g, 2)})
		out = append(out, struct {
			name    string
			generic nucleus.Instance
			indexed nucleus.Instance
		}{fmt.Sprintf("n34/g%d", gi), hideFlat(nucleus.NewFlatN34(g, 2)), nucleus.NewFlatN34(g, 2)})
	}
	return out
}

// TestFusedKernelMatchesGeneric demands that the fused flat path computes
// exactly the generic path's results — τ, convergence, and the WorkVisits
// cost accounting — across the option space (Snd/And × Notification ×
// threads × bounded sweeps).
func TestFusedKernelMatchesGeneric(t *testing.T) {
	optSets := []Options{
		{},
		{Notification: true},
		{Threads: 4},
		{Threads: 4, Notification: true},
		{MaxSweeps: 2},
	}
	for _, tc := range fusedCases(t) {
		if k := kernelFor(tc.indexed); !k.flat {
			t.Fatalf("%s: indexed instance does not take the fused path", tc.name)
		}
		if k := kernelFor(tc.generic); k.flat {
			t.Fatalf("%s: generic instance takes the fused path", tc.name)
		}
		for oi, opts := range optSets {
			for algName, run := range map[string]func(nucleus.Instance, Options) *Result{
				"snd": Snd, "and": And,
			} {
				want := run(tc.generic, opts)
				got := run(tc.indexed, opts)
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
				// Deterministic runs must also agree on the visit count —
				// the fused kernel changes the cost of a visit, never the
				// set of visits, early exits included. (Parallel And is
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
// InitialTau warm start over the fused kernel.
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

// TestFusedKernelZeroAlloc proves the claim the kernel's noalloc annotation
// makes: a full fused sweep over every cell, and waking every cell's
// neighbors, performs zero heap allocations — on a truss index (co-arity
// 2, the general row loop) and on k-core (co-arity 1, the graph's own CSR).
func TestFusedKernelZeroAlloc(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	for name, inst := range map[string]nucleus.Instance{"truss": nucleus.NewFlatTruss(g, 1), "core": nucleus.NewCore(g)} {
		k := kernelFor(inst)
		if !k.flat {
			t.Fatalf("%s does not expose flat incidence", name)
		}
		tau := inst.Degrees()
		active := make([]int32, len(tau))
		sc := &newScratches(1, tau)[0]
		n := int32(inst.NumCells())
		for _, par := range []bool{false, true} {
			allocs := testing.AllocsPerRun(10, func() {
				for c := int32(0); c < n; c++ {
					computeTauFlat(&k, c, tau, sc, tau[c], par)
					notifyNeighborsFlat(&k, c, tau, active, 0, tau[c], par)
				}
			})
			if allocs != 0 {
				t.Fatalf("%s par=%v: fused sweep allocated %.1f times per run, want 0", name, par, allocs)
			}
		}
	}
}

// TestGenericKernelZeroAlloc is the same claim for the generic kernel: its
// visitors are bound to the scratch once, not built per cell. The wrapper
// hides FlatIncidence, so the closure path runs — over Flat's
// VisitSCliques and VisitNeighbors, which themselves allocate nothing, so
// every allocation counted here would be the kernel's.
func TestGenericKernelZeroAlloc(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	k := kernelFor(hideFlat(nucleus.NewFlatTruss(g, 1)))
	if k.flat {
		t.Fatal("wrapped instance still takes the fused path")
	}
	tau := k.inst.Degrees()
	active := make([]int32, len(tau))
	sc := &newScratches(1, tau)[0]
	n := int32(k.inst.NumCells())
	sweep := func(par bool) {
		for c := int32(0); c < n; c++ {
			k.update(c, tau, sc, tau[c], par)
			k.notify(c, tau, active, sc, 0, tau[c], par)
		}
	}
	sweep(false) // bind the visitors
	for _, par := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(10, func() { sweep(par) }); allocs != 0 {
			t.Fatalf("par=%v: generic sweep allocated %.1f times per run, want 0", par, allocs)
		}
	}
}

// TestFlatOfRejectsNonFlat pins the dispatch predicate: every stored
// incidence takes the fused path — the graph's own CSR included — and only
// the instances that discover their s-cliques on the fly do not.
func TestFlatOfRejectsNonFlat(t *testing.T) {
	g := graph.Complete(5)
	if k := kernelFor(nucleus.NewTruss(g)); k.flat {
		t.Fatal("on-the-fly Truss must not take the fused path")
	}
	if k := kernelFor(nucleus.NewCore(g)); !k.flat || k.rows.Co != 1 {
		t.Fatalf("core: kernel flat=%v co=%d; want true, 1", k.flat, k.rows.Co)
	}
	if k := kernelFor(nucleus.NewFlatTruss(g, 1)); !k.flat || k.rows.Co != 2 {
		t.Fatalf("flat truss: kernel flat=%v co=%d; want true, 2", k.flat, k.rows.Co)
	}
}
