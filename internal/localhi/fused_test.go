package localhi

import (
	"fmt"
	"math/rand"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// fusedCases pairs an on-the-fly instance (generic closure path) with its
// indexed twin (fused flat path) over the same graph.
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
		}{fmt.Sprintf("truss/g%d", gi), nucleus.NewTruss(g), nucleus.NewFlatTruss(g, 2)})
		out = append(out, struct {
			name    string
			generic nucleus.Instance
			indexed nucleus.Instance
		}{fmt.Sprintf("n34/g%d", gi), nucleus.NewN34(g), nucleus.NewFlatN34(g, 2)})
	}
	return out
}

// TestFusedKernelMatchesGeneric demands that the fused flat path computes
// exactly the generic path's results — τ, convergence, and the WorkVisits
// cost accounting — across the option space (Snd/And × Preserve ×
// Notification × threads × bounded sweeps).
func TestFusedKernelMatchesGeneric(t *testing.T) {
	optSets := []Options{
		{},
		{Preserve: true},
		{Notification: true},
		{Notification: true, Preserve: true},
		{Threads: 4},
		{Threads: 4, Notification: true, Preserve: true},
		{MaxSweeps: 2},
	}
	for _, tc := range fusedCases(t) {
		if _, ok := tc.indexed.(nucleus.FlatIncidence); !ok {
			t.Fatalf("%s: indexed instance does not expose flat incidence", tc.name)
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
				// set of visits. (Parallel And is non-deterministic, and
				// notification skips depend on timing; compare only the
				// sequential, notification-free configurations.)
				if opts.Threads <= 1 && !opts.Notification && algName == "snd" {
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

// TestFusedKernelZeroAlloc proves the steady-state claim: once the
// per-worker scratch has grown to the largest row, a full fused sweep over
// every cell performs zero heap allocations.
func TestFusedKernelZeroAlloc(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	inst := nucleus.NewFlatTruss(g, 1)
	fa, ok := flatOf(inst)
	if !ok {
		t.Fatal("flat truss does not expose flat incidence")
	}
	tau := inst.Degrees()
	sc := &sweepScratch{}
	n := int32(inst.NumCells())
	sweep := func(preserve bool) {
		for c := int32(0); c < n; c++ {
			computeTauFlat(fa, c, tau, sc, tau[c], preserve, false)
		}
	}
	sweep(false) // warm the scratch to the largest row
	for _, preserve := range []bool{false, true} {
		if allocs := testing.AllocsPerRun(10, func() { sweep(preserve) }); allocs != 0 {
			t.Fatalf("preserve=%v: fused sweep allocated %.1f times per run, want 0", preserve, allocs)
		}
	}
}

// TestGenericKernelZeroAlloc is the same claim for the generic kernel: its
// visitor is bound to the scratch once, not built per cell. The wrapper
// hides FlatIncidenceArrays, so the closure path runs — over Flat's
// VisitSCliques, which itself allocates nothing, so every allocation
// counted here would be the kernel's.
func TestGenericKernelZeroAlloc(t *testing.T) {
	g := graph.PlantedCommunities(3, 14, 0.5, 40, 11)
	var inst nucleus.Instance = struct{ nucleus.Instance }{nucleus.NewFlatTruss(g, 1)}
	if _, ok := flatOf(inst); ok {
		t.Fatal("wrapped instance still takes the fused path")
	}
	tau := inst.Degrees()
	sc := &sweepScratch{}
	n := int32(inst.NumCells())
	sweep := func(preserve, par bool) {
		for c := int32(0); c < n; c++ {
			computeTau(inst, c, tau, sc, tau[c], preserve, par)
		}
	}
	sweep(false, false) // warm the scratch and bind the visitor
	for _, preserve := range []bool{false, true} {
		for _, par := range []bool{false, true} {
			if allocs := testing.AllocsPerRun(10, func() { sweep(preserve, par) }); allocs != 0 {
				t.Fatalf("preserve=%v par=%v: generic sweep allocated %.1f times per run, want 0", preserve, par, allocs)
			}
		}
	}
}

// TestFlatOfRejectsNonFlat pins the dispatch predicate.
func TestFlatOfRejectsNonFlat(t *testing.T) {
	g := graph.Complete(5)
	if _, ok := flatOf(nucleus.NewTruss(g)); ok {
		t.Fatal("on-the-fly Truss must not take the fused path")
	}
	if _, ok := flatOf(nucleus.NewCore(g)); ok {
		t.Fatal("Core must not take the fused path")
	}
	if fa, ok := flatOf(nucleus.NewFlatTruss(g, 1)); !ok || fa.co != 2 {
		t.Fatalf("flat truss: flatOf = %+v, %v; want co=2, true", fa, ok)
	}
}
