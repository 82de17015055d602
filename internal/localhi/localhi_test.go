package localhi

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

func coreKappa(g *graph.Graph) []int32 {
	return peel.Run(nucleus.NewCore(g)).Kappa
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFigure2Snd replays the paper's Figure 2 walk-through: τ0 = degrees,
// τ1 = {a:2 b:2 c:2 d:2 e:1 f:1}, τ2 = κ = {1,2,2,2,1,1}; SND converges in
// two iterations.
func TestFigure2Snd(t *testing.T) {
	g := graph.Figure2()
	inst := nucleus.NewCore(g)
	var history [][]int32
	res := Snd(inst, Options{OnSweep: func(_ int, tau []int32) {
		history = append(history, append([]int32(nil), tau...))
	}})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Iterations != 2 {
		t.Fatalf("SND iterations = %d, want 2", res.Iterations)
	}
	wantTau1 := []int32{2, 2, 2, 2, 1, 1}
	wantKappa := []int32{1, 2, 2, 2, 1, 1}
	if !equalInt32(history[0], wantTau1) {
		t.Fatalf("τ1 = %v, want %v", history[0], wantTau1)
	}
	if !equalInt32(res.Tau, wantKappa) {
		t.Fatalf("κ = %v, want %v", res.Tau, wantKappa)
	}
}

// TestFigure2AndAlphabetical: processing {a,b,c,d,e,f} in alphabetical
// (id) order also needs two iterations, exactly as the paper notes:
// τ1(a) = H({τ0(e), τ0(b)}) = 2, fixed to 1 only in the second sweep. The
// order is explicit: And's default is ascending s-degree.
func TestFigure2AndAlphabetical(t *testing.T) {
	g := graph.Figure2()
	res := And(nucleus.NewCore(g), Options{Order: []int32{0, 1, 2, 3, 4, 5}})
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if res.Iterations != 2 {
		t.Fatalf("AND alphabetical iterations = %d, want 2", res.Iterations)
	}
	if !equalInt32(res.Tau, []int32{1, 2, 2, 2, 1, 1}) {
		t.Fatalf("κ = %v", res.Tau)
	}
}

// TestFigure2AndKappaOrder verifies Theorem 4 on the toy: the order
// {f,e,a,b,c,d} is non-decreasing in κ, so AND converges in one iteration.
func TestFigure2AndKappaOrder(t *testing.T) {
	g := graph.Figure2()
	order := []int32{5, 4, 0, 1, 2, 3} // f,e,a,b,c,d
	res := And(nucleus.NewCore(g), Options{Order: order})
	if res.Iterations != 1 {
		t.Fatalf("AND κ-order iterations = %d, want 1", res.Iterations)
	}
	if !equalInt32(res.Tau, []int32{1, 2, 2, 2, 1, 1}) {
		t.Fatalf("κ = %v", res.Tau)
	}
}

// TestTheorem4Quick: AND processed in the peeling order — a non-decreasing
// κ order whose tie-breaking guarantees each cell has at most κ unprocessed
// co-members — converges in a single iteration, for all three instances.
// (The paper states the theorem for "non-decreasing κ order"; an arbitrary
// κ-sorted order with different tie-breaking can need extra iterations, so
// the peeling order is the constructive witness.)
func TestTheorem4Quick(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g)} {
			pr := peel.Run(inst)
			res := And(inst, Options{Order: pr.Order})
			if res.Iterations > 1 || !equalInt32(res.Tau, pr.Kappa) {
				return false
			}
		}
		return true
	})
}

// TestKappaSortedOrderExact: any non-decreasing κ order still converges to
// the exact decomposition (just not necessarily in one sweep).
func TestKappaSortedOrderExact(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		kappa := coreKappa(g)
		order := make([]int32, g.N())
		for i := range order {
			order[i] = int32(i)
		}
		sort.SliceStable(order, func(a, b int) bool { return kappa[order[a]] < kappa[order[b]] })
		res := And(nucleus.NewCore(g), Options{Order: order})
		return equalInt32(res.Tau, kappa)
	})
}

// TestSndMatchesPeelAllInstances is the central exactness property: the
// synchronous local algorithm converges to the same κ as global peeling for
// (1,2), (2,3) and (3,4).
func TestSndMatchesPeelAllInstances(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g), nucleus.NewN34(g)} {
			want := peel.Run(inst).Kappa
			got := Snd(inst, Options{}).Tau
			if !equalInt32(got, want) {
				return false
			}
		}
		return true
	})
}

// TestAndMatchesPeelAllInstances: same for the asynchronous variant, with
// and without notification.
func TestAndMatchesPeelAllInstances(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g), nucleus.NewN34(g)} {
			want := peel.Run(inst).Kappa
			if !equalInt32(And(inst, Options{}).Tau, want) {
				return false
			}
			if !equalInt32(And(inst, Options{Notification: true}).Tau, want) {
				return false
			}
		}
		return true
	})
}

// TestHyperGenericMatches: the generic hypergraph instance agrees with
// peeling and local algorithms for an exotic (1,3) decomposition.
func TestHyperGenericMatches(t *testing.T) {
	g := graph.PlantedCommunities(2, 9, 0.7, 6, 21)
	inst := nucleustest.NewHyper(g, 1, 3)
	want := peel.Run(inst).Kappa
	if got := Snd(inst, Options{}).Tau; !equalInt32(got, want) {
		t.Fatalf("SND (1,3) = %v, want %v", got, want)
	}
	if got := And(inst, Options{Notification: true}).Tau; !equalInt32(got, want) {
		t.Fatalf("AND (1,3) = %v, want %v", got, want)
	}
}

// TestMonotonicityAndLowerBound checks Theorem 1 sweep by sweep: τ never
// increases and never drops below κ.
func TestMonotonicityAndLowerBound(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		inst := nucleus.NewTruss(g)
		kappa := peel.Run(inst).Kappa
		prev := inst.Degrees()
		ok := true
		Snd(inst, Options{OnSweep: func(_ int, tau []int32) {
			for i := range tau {
				if tau[i] > prev[i] || tau[i] < kappa[i] {
					ok = false
				}
			}
			copy(prev, tau)
		}})
		return ok
	})
}

// TestConvergenceBound checks Theorem 3 / Lemma 2: SND converges within
// the number of degree levels.
func TestConvergenceBound(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g)} {
			levels := peel.Levels(inst)
			res := Snd(inst, Options{})
			if res.Iterations > levels.Count {
				return false
			}
		}
		return true
	})
}

// TestAndNeverSlowerThanSnd: in sweeps-with-updates, sequential AND is at
// most SND (Gauss–Seidel dominates Jacobi here because updates only go
// down and AND reads fresher values).
func TestAndNeverSlowerThanSnd(t *testing.T) {
	quickGraphs(t, func(g *graph.Graph) bool {
		inst := nucleus.NewCore(g)
		snd := Snd(inst, Options{})
		and := And(inst, Options{})
		return and.Iterations <= snd.Iterations
	})
}

func TestMaxSweepsApproximation(t *testing.T) {
	g := graph.PowerLawCluster(400, 5, 0.5, 17)
	inst := nucleus.NewCore(g)
	kappa := peel.Run(inst).Kappa
	res := Snd(inst, Options{MaxSweeps: 1})
	if res.Converged && res.Sweeps > 1 {
		t.Fatal("budget ignored")
	}
	// After one sweep τ is the h-index of neighbor degrees: still an upper
	// bound on κ, pointwise.
	for i := range kappa {
		if res.Tau[i] < kappa[i] {
			t.Fatalf("τ below κ at %d", i)
		}
	}
}

func TestNotificationSkipsWork(t *testing.T) {
	g := graph.PowerLawCluster(800, 5, 0.5, 23)
	inst := nucleus.NewCore(g)
	plain := And(inst, Options{})
	notif := And(inst, Options{Notification: true})
	if !equalInt32(plain.Tau, notif.Tau) {
		t.Fatal("notification changed the fixpoint")
	}
	if notif.SkippedCells == 0 {
		t.Error("notification mechanism never skipped a cell")
	}
	// The notified run should do fewer s-clique visits: it evaluates only
	// the cells a co-member's fall woke.
	if notif.WorkVisits >= plain.WorkVisits {
		t.Errorf("notification did not save work: %d vs %d visits",
			notif.WorkVisits, plain.WorkVisits)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := graph.PowerLawCluster(500, 5, 0.4, 29)
	for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g)} {
		want := peel.Run(inst).Kappa
		for _, threads := range []int{2, 4, 8} {
			snd := Snd(inst, Options{Threads: threads})
			if !equalInt32(snd.Tau, want) {
				t.Fatalf("parallel SND t=%d wrong", threads)
			}
			and := And(inst, Options{Threads: threads, Notification: true})
			if !equalInt32(and.Tau, want) {
				t.Fatalf("parallel AND t=%d wrong", threads)
			}
		}
	}
}

func TestSubsetRestrictsComputation(t *testing.T) {
	g := graph.CliqueChain(4, 6) // 4 K6 blocks: core number 5 everywhere
	inst := nucleus.NewCore(g)
	// Restrict to the first block; remaining cells stay at τ0 = degree.
	subset := []int32{0, 1, 2, 3, 4, 5}
	res := And(inst, Options{Subset: subset, Notification: true})
	deg := inst.Degrees()
	for c := 6; c < g.N(); c++ {
		if res.Tau[c] != deg[c] {
			t.Fatalf("cell %d outside subset changed: %d vs %d", c, res.Tau[c], deg[c])
		}
	}
	kappa := coreKappa(g)
	// Inside the block, estimates must stay sandwiched: κ <= τ <= degree.
	for _, c := range subset {
		if res.Tau[c] < kappa[c] || res.Tau[c] > deg[c] {
			t.Fatalf("subset estimate out of range at %d", c)
		}
	}
}

func TestOnSweepObservesProgress(t *testing.T) {
	g := graph.PowerLawCluster(200, 4, 0.5, 31)
	inst := nucleus.NewCore(g)
	sweeps := 0
	res := Snd(inst, Options{OnSweep: func(s int, tau []int32) {
		sweeps++
		if s != sweeps {
			t.Fatalf("sweep index %d, want %d", s, sweeps)
		}
		if len(tau) != inst.NumCells() {
			t.Fatal("tau length wrong in callback")
		}
	}})
	if sweeps != res.Sweeps {
		t.Fatalf("callback saw %d sweeps, result says %d", sweeps, res.Sweeps)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.Build(0, nil)
	res := Snd(nucleus.NewCore(empty), Options{})
	if len(res.Tau) != 0 || !res.Converged {
		t.Fatal("empty graph mishandled")
	}
	single := graph.Build(1, nil)
	res = And(nucleus.NewCore(single), Options{Notification: true})
	if len(res.Tau) != 1 || res.Tau[0] != 0 {
		t.Fatalf("singleton τ = %v", res.Tau)
	}
	// Graph with edges but no triangles: all truss numbers zero.
	tri := graph.Path(5)
	resT := Snd(nucleus.NewTruss(tri), Options{})
	for _, v := range resT.Tau {
		if v != 0 {
			t.Fatalf("path truss τ = %v", resT.Tau)
		}
	}
}

// TestWorstCaseOrderSlower: processing in non-increasing κ order should
// need at least as many iterations as the κ-sorted order (the paper's
// intuition for the AND worst case).
func TestWorstCaseOrderIterations(t *testing.T) {
	g := graph.PowerLawCluster(300, 4, 0.5, 37)
	inst := nucleus.NewCore(g)
	pr := peel.Run(inst)
	// Peeling order: single iteration (Theorem 4).
	ia := And(inst, Options{Order: pr.Order}).Iterations
	if ia != 1 {
		t.Fatalf("peeling order took %d iterations, want 1", ia)
	}
	// Reversed peeling order is the paper's conjectured worst case; it must
	// be at least as slow.
	desc := make([]int32, len(pr.Order))
	for i, c := range pr.Order {
		desc[len(desc)-1-i] = c
	}
	id := And(inst, Options{Order: desc}).Iterations
	if id < ia {
		t.Fatalf("reverse peeling order (%d iters) faster than peeling order (%d)", id, ia)
	}
}

func quickGraphs(t *testing.T, pred func(*graph.Graph) bool) {
	t.Helper()
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%25) + 4
		m := int(mRaw%110) + 1
		maxM := n * (n - 1) / 2
		if m > maxM {
			m = maxM
		}
		return pred(graph.GnM(n, m, seed))
	}, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(14))})
	if err != nil {
		t.Fatal(err)
	}
}
