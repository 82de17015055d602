package peel

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

// naiveTruss computes truss numbers by literal repeated minimum-support
// removal over an explicit edge/triangle structure — an implementation
// independent of the Instance machinery.
func naiveTruss(g *graph.Graph) []int32 {
	m := int(g.M())
	support := cliques.CountPerEdge(g)
	removed := make([]bool, m)
	kappa := make([]int32, m)
	k := int32(0)
	for step := 0; step < m; step++ {
		best := -1
		for e := 0; e < m; e++ {
			if !removed[e] && (best < 0 || support[e] < support[best]) {
				best = e
			}
		}
		if support[best] > k {
			k = support[best]
		}
		kappa[best] = k
		removed[best] = true
		cliques.ForEachTriangleOfEdge(g, int64(best), func(_ uint32, euw, evw int64) bool {
			if !removed[euw] && !removed[evw] {
				support[euw]--
				support[evw]--
			}
			return true
		})
	}
	return kappa
}

func TestTrussMatchesNaiveQuick(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%20) + 4
		m := int(mRaw%80) + 1
		if maxM := n * (n - 1) / 2; m > maxM {
			m = maxM
		}
		g := graph.GnM(n, m, seed)
		got := Run(nucleus.NewTruss(g)).Kappa
		want := naiveTruss(g)
		for e := range want {
			if got[e] != want[e] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(31))})
	if err != nil {
		t.Fatal(err)
	}
}

// TestN34MatchesHyperQuick: the on-the-fly (3,4) instance agrees with the
// materialized hypergraph, matched through triangle vertex sets.
func TestN34MatchesHyperQuick(t *testing.T) {
	err := quick.Check(func(seed int64, mRaw uint8) bool {
		n := 14
		m := int(mRaw%60) + 20
		if maxM := n * (n - 1) / 2; m > maxM {
			m = maxM
		}
		g := graph.GnM(n, m, seed)
		n34 := nucleus.NewN34(g)
		hyper := nucleustest.NewHyper(g, 3, 4)
		a := Run(n34).Kappa
		b := Run(hyper).Kappa
		if n34.NumCells() != hyper.NumCells() {
			return false
		}
		// Match cells by vertex triple.
		byKey := make(map[[3]uint32]int32)
		for c := int32(0); c < int32(n34.NumCells()); c++ {
			vs := n34.CellVertices(c, nil)
			byKey[[3]uint32{vs[0], vs[1], vs[2]}] = a[c]
		}
		for c := int32(0); c < int32(hyper.NumCells()); c++ {
			vs := hyper.CellVertices(c, nil)
			want, ok := byKey[[3]uint32{vs[0], vs[1], vs[2]}]
			if !ok || b[c] != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(32))})
	if err != nil {
		t.Fatal(err)
	}
}

// TestKappaIsMaxMinDegreeSubgraph verifies Lemma 1 on small graphs by
// brute force for the (1,2) instance: κ(v) = max over subgraphs containing
// v of the subgraph's minimum degree.
func TestKappaIsMaxMinDegreeSubgraph(t *testing.T) {
	err := quick.Check(func(seed int64, mRaw uint8) bool {
		n := 8
		m := int(mRaw%20) + 1
		if maxM := n * (n - 1) / 2; m > maxM {
			m = maxM
		}
		g := graph.GnM(n, m, seed)
		kappa := Run(nucleus.NewCore(g)).Kappa
		for v := 0; v < n; v++ {
			best := int32(0)
			for mask := 1; mask < 1<<n; mask++ {
				if mask&(1<<v) == 0 {
					continue
				}
				minDeg := int32(1 << 30)
				for u := 0; u < n; u++ {
					if mask&(1<<u) == 0 {
						continue
					}
					d := int32(0)
					for _, w := range g.Neighbors(uint32(u)) {
						if mask&(1<<w) != 0 {
							d++
						}
					}
					if d < minDeg {
						minDeg = d
					}
				}
				if minDeg > best {
					best = minDeg
				}
			}
			if kappa[v] != best {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(33))})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPeelEmptyAndDegenerate(t *testing.T) {
	empty := graph.Build(0, nil)
	res := Run(nucleus.NewCore(empty))
	if len(res.Kappa) != 0 || res.MaxKappa != 0 {
		t.Fatal("empty graph mishandled")
	}
	iso := graph.Build(3, nil)
	res = Run(nucleus.NewCore(iso))
	for _, k := range res.Kappa {
		if k != 0 {
			t.Fatalf("isolated κ = %v", res.Kappa)
		}
	}
	lv := Levels(nucleus.NewCore(iso))
	if lv.Count != 1 || lv.Sizes[0] != 3 {
		t.Fatalf("isolated levels = %v", lv.Sizes)
	}
}

func TestLevelsEmptyInstance(t *testing.T) {
	empty := graph.Build(0, nil)
	lv := Levels(nucleus.NewCore(empty))
	if lv.Count != 0 || len(lv.Sizes) != 0 {
		t.Fatalf("empty levels = %+v", lv)
	}
}

// TestLevelsMatchesReference holds Levels to Definition 7 read literally
// (refLevels), cell by cell, on every family and cell kind of the
// differential suite and on the shape that made the rescanning version
// quadratic: a path, whose level count is half its length.
func TestLevelsMatchesReference(t *testing.T) {
	check := func(name string, inst nucleus.Instance) {
		t.Helper()
		got, want := Levels(inst), refLevels(inst)
		if got.Count != want.Count || !slices.Equal(got.Sizes, want.Sizes) || !slices.Equal(got.Level, want.Level) {
			t.Fatalf("%s: %d levels of sizes %v, reference %d of %v (or a cell's level differs)",
				name, got.Count, got.Sizes, want.Count, want.Sizes)
		}
	}
	for _, fam := range diffFamilies {
		g := fam.Mk()
		for _, kind := range diffInstances {
			check(fam.Name+"/"+kind.Name, kind.Mk(g))
		}
	}
	path := make([][2]uint32, 2000)
	for i := range path {
		path[i] = [2]uint32{uint32(i), uint32(i + 1)}
	}
	inst := nucleus.NewCore(graph.Build(-1, path))
	check("path", inst)
	if lv := Levels(inst); lv.Count != 1001 {
		t.Fatalf("path on 2001 vertices: %d levels, want 1001", lv.Count)
	}
}

// TestRunAllocsIndependentOfInstance is the gate a time assertion would
// be: Run allocates its result, the degree copy it turns into κ, and the
// three bucket arrays — the same handful for a small graph, a larger one
// and a stored truss. A queue that grows per bucket or per decrement fails
// it by orders of magnitude.
func TestRunAllocsIndependentOfInstance(t *testing.T) {
	const limit = 8
	var first float64
	for i, tc := range []struct {
		name string
		inst nucleus.Instance
	}{
		{"core/rmat8", nucleus.NewCore(graph.RMAT(8, 8, 0.57, 0.19, 0.19, 1))},
		{"core/rmat12", nucleus.NewCore(graph.RMAT(12, 8, 0.57, 0.19, 0.19, 1))},
		{"flatTruss", nucleus.NewFlatTruss(graph.PlantedCommunities(6, 40, 0.3, 300, 1), 1)},
	} {
		got := testing.AllocsPerRun(5, func() { Run(tc.inst) })
		if i == 0 {
			first = got
		}
		if got != first || got > limit {
			t.Errorf("%s: Run allocates %.0f times, want the first instance's %.0f and <= %d", tc.name, got, first, limit)
		}
	}
}

// peelBenchInputs are the instances of docs/PERFORMANCE.md's "Which peel
// serves which instance" table: bench/'s lib_core graph and lib_nucleus'
// planted communities, stored and on the fly.
func peelBenchInputs() (rmat, planted *graph.Graph) {
	return graph.RMAT(14, 8, 0.57, 0.19, 0.19, 1), graph.PlantedCommunities(12, 80, 0.3, 1200, 1)
}

// BenchmarkPeelCore times the one engine, Run — over stored rows, and over
// the discovered rows of the on-the-fly instances:
// `go test -run '^$' -bench Peel -cpu 1,2 ./internal/peel` is the table.
func BenchmarkPeelCore(b *testing.B) {
	rmat, planted := peelBenchInputs()
	for _, tc := range []struct {
		name string
		inst nucleus.Instance
	}{
		{"coreRMAT14", nucleus.NewCore(rmat)},
		{"flatTruss", nucleus.NewFlatTruss(planted, 2)},
		{"flatN34", nucleus.NewFlatN34(planted, 2)},
		{"trussOnTheFly", nucleus.NewTruss(planted)},
		{"n34OnTheFly", nucleus.NewN34(planted)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			checkKappa(b, "Run", tc.inst, Run(tc.inst), refPeel(tc.inst))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(tc.inst)
			}
		})
	}
}

func BenchmarkLevelsCore(b *testing.B) {
	g := graph.PowerLawCluster(1000, 5, 0.4, 85)
	inst := nucleus.NewCore(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Levels(inst)
	}
}
