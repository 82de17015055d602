package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestBuildThreadsBitIdentical proves the transposing CSR builder reproduces
// the sort-and-search builder it replaced (refBuild) — offsets, adjacency,
// and, once forced, edge ids and endpoint tables — at every thread count,
// over the generator families and messy edge lists (duplicates, self-loops,
// reversed endpoints, n == -1 inference).
func TestBuildThreadsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type edgeCase struct {
		name  string
		n     int
		edges [][2]uint32
	}
	cases := []edgeCase{
		{"empty", -1, nil},
		{"selfLoopOnly", -1, [][2]uint32{{7, 7}}},
		{"isolatedTail", 100, [][2]uint32{{0, 1}, {1, 2}}},
	}
	for _, g := range []*Graph{
		Complete(9),
		CliqueChain(5, 6),
		GnM(300, 1200, 3),
		BarabasiAlbert(250, 6, 4),
		RMAT(9, 4, 0.45, 0.22, 0.22, 5),
		WattsStrogatz(200, 8, 0.15, 6),
		PlantedCommunities(4, 20, 0.5, 60, 7),
		PowerLawCluster(220, 5, 0.4, 8),
	} {
		cases = append(cases, edgeCase{g.String(), -1, g.Edges()})
	}
	// A deliberately messy list: duplicates, both orientations, self-loops.
	var messy [][2]uint32
	for i := 0; i < 2000; i++ {
		u, v := uint32(rng.Intn(150)), uint32(rng.Intn(150))
		messy = append(messy, [2]uint32{u, v})
		if rng.Intn(3) == 0 {
			messy = append(messy, [2]uint32{v, u})
		}
	}
	cases = append(cases, edgeCase{"messy", -1, messy}, edgeCase{"messyExplicitN", 200, messy})

	// The benchmark's input shape, made worse: a heavy-tailed graph in
	// shuffled order with duplicates and reversed copies appended.
	skewed := RMAT(12, 8, 0.57, 0.19, 0.19, 1).Edges()
	rng.Shuffle(len(skewed), func(i, j int) { skewed[i], skewed[j] = skewed[j], skewed[i] })
	for _, e := range skewed[:len(skewed)/3] {
		skewed = append(skewed, e, [2]uint32{e[1], e[0]})
	}
	var star, allDup [][2]uint32
	for v := uint32(1); v < 400; v++ {
		star = append(star, [2]uint32{v % 2 * v, (v + 1) % 2 * v}) // hub 0 on either side
		allDup = append(allDup, [2]uint32{3, 9}, [2]uint32{9, 3})
	}
	cases = append(cases,
		edgeCase{"skewedShuffledDups", -1, skewed}, edgeCase{"star", 400, star}, edgeCase{"allDuplicates", -1, allDup})

	for _, tc := range cases {
		for _, threads := range []int{1, 2, 4, 8} {
			want, got := refBuild(tc.n, tc.edges, threads), BuildThreads(tc.n, tc.edges, threads)
			if err := sameGraph(want, got); err != nil {
				t.Errorf("%s threads=%d: %v", tc.name, threads, err)
			}
		}
		if err := sameGraph(refBuild(tc.n, tc.edges, 1), Build(tc.n, tc.edges)); err != nil {
			t.Errorf("%s: Build != refBuild: %v", tc.name, err)
		}
	}
}

// TestBuildOutOfRangeEdgePanicsOnCaller: an endpoint at or past a given n is
// reported on the calling goroutine, where it can be recovered, and names
// the first offending edge — at every thread count, and not for a self-loop
// (dropped, as ever) or when n is inferred.
func TestBuildOutOfRangeEdgePanicsOnCaller(t *testing.T) {
	edges := [][2]uint32{{0, 1}, {1, 2}, {7, 7}, {2, 0}, {1, 0}, {0, 5}, {2, 1}, {1, 2}, {9, 1}, {0, 2}}
	for _, threads := range []int{1, 2, 8} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := "graph: edge {0,5} out of range (n=3)"; msg != want {
					t.Errorf("threads=%d: recovered %q, want %q", threads, msg, want)
				}
			}()
			BuildThreads(3, edges, threads)
		}()
		if g := BuildThreads(-1, edges, threads); g.N() != 10 {
			t.Errorf("threads=%d: inferred n=%d, want 10", threads, g.N())
		}
		if g := BuildThreads(3, edges[:5], threads); g.M() != 3 {
			t.Errorf("threads=%d: in-range prefix has m=%d, want 3", threads, g.M())
		}
	}
}

// TestFirstUseOfIDsIsConcurrent: whichever accessor reaches an unnumbered
// graph first, from however many goroutines at once (run under -race), every
// caller sees the finished tables, and they are refBuild's.
func TestFirstUseOfIDsIsConcurrent(t *testing.T) {
	edges := RMAT(10, 8, 0.57, 0.19, 0.19, 2).Edges()
	want := refBuild(-1, edges, 1)
	for round := 0; round < 4; round++ {
		g := BuildThreads(-1, edges, 2)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				u, e := uint32(w*37%g.N()), int64(w)*(g.M()-1)/7
				switch w % 3 {
				case 0:
					if !slices.Equal(g.EdgeIDs(u), want.EdgeIDs(u)) {
						t.Errorf("EdgeIDs(%d) differs from refBuild", u)
					}
				case 1:
					if gu, gv := g.Edge(e); [2]uint32{gu, gv} != edges[e] {
						t.Errorf("Edge(%d) = (%d,%d), want %v", e, gu, gv, edges[e])
					}
				default:
					if id, ok := g.EdgeID(edges[e][1], edges[e][0]); !ok || id != e {
						t.Errorf("EdgeID%v = %d, %v, want %d", edges[e], id, ok, e)
					}
				}
			}()
		}
		wg.Wait()
		if err := sameGraph(want, g); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildInfersNFromSelfLoops pins the inference semantics the folded
// degree pass must preserve: self-loop endpoints raise n, add no edges.
func TestBuildInfersNFromSelfLoops(t *testing.T) {
	g := Build(-1, [][2]uint32{{7, 7}})
	if g.N() != 8 || g.M() != 0 {
		t.Fatalf("n=%d m=%d, want n=8 m=0", g.N(), g.M())
	}
}
