package sched

import (
	"fmt"
	"math"
	"testing"
)

func TestCostModelColdPrior(t *testing.T) {
	m := NewCostModel(0)
	k := CostKey{Graph: "g", Version: 1, Dec: "truss", Alg: "localhi"}
	p := m.Predict(k, 50000)
	if !p.Cold {
		t.Fatal("unseen key must predict cold")
	}
	if want := priorUnitMs * 50000; p.Ms != want {
		t.Fatalf("cold Ms = %v, want %v", p.Ms, want)
	}
	if p.Sweeps != priorSweeps {
		t.Fatalf("cold Sweeps = %v, want %v", p.Sweeps, priorSweeps)
	}
	if want := p.Ms / priorSweeps; p.SweepMs != want {
		t.Fatalf("cold SweepMs = %v, want %v", p.SweepMs, want)
	}
	// A larger graph must never predict cheaper.
	if bigger := m.Predict(k, 500000); bigger.Ms <= p.Ms {
		t.Fatalf("prior not monotone in size: %v <= %v", bigger.Ms, p.Ms)
	}
	// Degenerate sizes are floored, not zero-priced.
	if tiny := m.Predict(k, 0); tiny.Ms < minObservedMs {
		t.Fatalf("zero-size prior %v below floor", tiny.Ms)
	}
	st := m.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 0 {
		t.Fatalf("stats after cold predicts = %+v", st)
	}
}

// TestCostModelEWMAConvergence is the table-driven convergence check:
// scripted observation histories and where the per-key estimate must end
// up. The first observation seeds the EWMA outright; later ones blend at
// alpha, so a shifted workload converges geometrically toward the new
// level.
func TestCostModelEWMAConvergence(t *testing.T) {
	cases := []struct {
		name     string
		alpha    float64
		observed []float64 // observed run durations, in order
		wantMs   float64
		tol      float64
	}{
		{name: "constant history is learned exactly", alpha: 0.3,
			observed: []float64{100, 100, 100, 100}, wantMs: 100, tol: 0},
		{name: "single observation seeds outright", alpha: 0.3,
			observed: []float64{42}, wantMs: 42, tol: 0},
		{name: "step change converges to new level", alpha: 0.3,
			observed: append([]float64{100}, repeat(200, 30)...), wantMs: 200, tol: 1},
		{name: "high alpha tracks the last sample closely", alpha: 0.9,
			observed: []float64{100, 10}, wantMs: 19, tol: 0.001},
		{name: "low alpha resists a spike", alpha: 0.1,
			observed: []float64{100, 1000}, wantMs: 190, tol: 0.001},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewCostModel(tc.alpha)
			k := CostKey{Graph: "g", Version: 1, Dec: "core", Alg: "local"}
			for _, obs := range tc.observed {
				p := m.Predict(k, 1000)
				m.Observe(k, 1000, p.Ms, obs, 10, 1000)
			}
			got := m.Predict(k, 1000)
			if got.Cold {
				t.Fatal("observed key predicts cold")
			}
			if math.Abs(got.Ms-tc.wantMs) > tc.tol {
				t.Fatalf("converged Ms = %v, want %v ± %v", got.Ms, tc.wantMs, tc.tol)
			}
		})
	}
}

func TestCostModelSweepsAndUpdatesTracked(t *testing.T) {
	m := NewCostModel(0.3)
	k := CostKey{Graph: "g", Version: 1, Dec: "core", Alg: "local"}
	m.Observe(k, 1000, 0, 120, 12, 5000)
	p := m.Predict(k, 1000)
	if p.Sweeps != 12 {
		t.Fatalf("Sweeps = %v, want 12", p.Sweeps)
	}
	if want := 120.0 / 12; p.SweepMs != want {
		t.Fatalf("SweepMs = %v, want %v", p.SweepMs, want)
	}
	// Peel-style runs report zero sweeps; the per-sweep price must not
	// divide by zero (budgeted degradation depends on it).
	kp := CostKey{Graph: "g", Version: 1, Dec: "core", Alg: "peel"}
	m.Observe(kp, 1000, 0, 80, 0, 0)
	pp := m.Predict(kp, 1000)
	if pp.Sweeps != 1 || pp.SweepMs != 80 {
		t.Fatalf("peel prediction = %+v, want Sweeps=1 SweepMs=80", pp)
	}
}

func TestCostModelVersionIsPartOfKey(t *testing.T) {
	m := NewCostModel(0.3)
	k1 := CostKey{Graph: "g", Version: 1, Dec: "core", Alg: "local"}
	m.Observe(k1, 1000, 0, 500, 10, 0)
	k2 := k1
	k2.Version = 2
	if p := m.Predict(k2, 1000); !p.Cold {
		t.Fatal("new graph version must not reuse the old version's estimate")
	}
}

func TestCostModelEntryBound(t *testing.T) {
	m := NewCostModel(0.3)
	for i := 0; i < maxEntries+64; i++ {
		k := CostKey{Graph: fmt.Sprintf("g%d", i), Version: 1, Dec: "core", Alg: "local"}
		m.Observe(k, 1000, 0, 10, 1, 0)
	}
	if st := m.Stats(); st.Entries > maxEntries {
		t.Fatalf("entries = %d, exceeds bound %d", st.Entries, maxEntries)
	}
}

// TestCostModelTraceReplay replays a recorded-trace-shaped workload over
// three generator families (gnm, ba, rmat at a few sizes) with
// deterministic ±20% run-to-run noise and a mid-trace version bump, and
// asserts the model's running MeanAbsErrPct — which includes its
// cold-start guesses — stays within the 50% band the admission policy is
// designed around.
func TestCostModelTraceReplay(t *testing.T) {
	type family struct {
		graph  string
		size   int64   // n+m
		baseMs float64 // true mean cost of a run
		sweeps int
	}
	families := []family{
		{graph: "gnm-small", size: 5000, baseMs: 12, sweeps: 9},
		{graph: "gnm-large", size: 50000, baseMs: 130, sweeps: 11},
		{graph: "ba-small", size: 5000, baseMs: 18, sweeps: 14},
		{graph: "ba-large", size: 50000, baseMs: 210, sweeps: 16},
		{graph: "rmat-10", size: 9216, baseMs: 45, sweeps: 22},
		{graph: "rmat-13", size: 73728, baseMs: 420, sweeps: 25},
	}
	m := NewCostModel(0.3)
	// Deterministic noise in [-20%, +20%]: a small LCG, no math/rand,
	// same trace every run.
	state := uint64(12345)
	noise := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return 0.8 + 0.4*float64(state>>33)/float64(1<<31)
	}
	const runsPerKey = 40
	for run := 0; run < runsPerKey; run++ {
		for _, f := range families {
			version := uint64(1)
			if run >= runsPerKey/2 {
				version = 2 // mid-trace mutation: every key goes cold once more
			}
			for _, alg := range []string{"local", "localhi"} {
				k := CostKey{Graph: f.graph, Version: version, Dec: "truss", Alg: alg}
				p := m.Predict(k, f.size)
				observed := f.baseMs * noise()
				if alg == "localhi" {
					observed *= 0.6 // the indexed kernel is faster on the same instance
				}
				m.Observe(k, f.size, p.Ms, observed, f.sweeps, f.size*int64(f.sweeps))
			}
		}
	}
	st := m.Stats()
	if st.Observations != int64(runsPerKey*len(families)*2) {
		t.Fatalf("observations = %d", st.Observations)
	}
	if st.MeanAbsErrPct > 50 {
		t.Fatalf("meanAbsErrPct = %.1f%%, want <= 50%%", st.MeanAbsErrPct)
	}
	if st.MeanAbsErrPct <= 0 {
		t.Fatalf("meanAbsErrPct = %v: noise must produce nonzero error", st.MeanAbsErrPct)
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
