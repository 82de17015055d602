package cliques

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nucleus/internal/graph"
)

// checkAgainstRef holds the positional triangle index and both 4-clique
// passes to the map-based reference (ref_test.go) on g, at every thread
// count: the same List, every triangle's id in all six vertex orders, the
// same K4 degrees and Offs, every row equal as a multiset of co-member
// triples, arrays bit-identical across thread counts, and ID on random
// triples — out of range and repeated vertices included — equal to the
// reference's answer.
func checkAgainstRef(t testing.TB, g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	ref := newRefTriangleIndex(g)
	refDeg := ref.K4DegreePerTriangle(g)
	refInc := refK4Incidence(g, ref, 2)
	var first *K4Incidence
	for _, threads := range []int{1, 2, 3, 8, 100} {
		ti := BuildTriangleIndexThreads(g, threads)
		if !slices.Equal(ti.List, ref.List) {
			t.Fatalf("threads %d: triangle list differs from the reference", threads)
		}
		for i, tr := range ti.List {
			a, b, c := tr[0], tr[1], tr[2]
			for _, p := range [][3]uint32{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
				if id, ok := ti.ID(p[0], p[1], p[2]); !ok || id != int32(i) {
					t.Fatalf("threads %d: ID%v = %d/%v, want %d", threads, p, id, ok, i)
				}
			}
		}
		if deg := ti.K4DegreePerTriangleParallel(g, threads); !slices.Equal(deg, refDeg) {
			t.Fatalf("threads %d: K4 degrees differ from the reference", threads)
		}
		inc := BuildK4Incidence(g, ti, nil, threads)
		if first == nil {
			first = inc
			if !slices.Equal(inc.Offs, refInc.Offs) {
				t.Fatalf("K4 incidence offsets differ from the reference")
			}
			for tr := 0; tr < ti.Len(); tr++ {
				got, want := inc.Triples[inc.Offs[tr]:inc.Offs[tr+1]], refInc.Triples[refInc.Offs[tr]:refInc.Offs[tr+1]]
				if !slices.Equal(canonicalRow(got), canonicalRow(want)) {
					t.Fatalf("triangle %d: row %v, reference %v", tr, got, want)
				}
			}
		} else if !slices.Equal(inc.Offs, first.Offs) || !slices.Equal(inc.Triples, first.Triples) {
			t.Fatalf("threads %d: K4 incidence differs from the one-thread build", threads)
		}
	}
	ti := BuildTriangleIndex(g)
	n := g.N()
	for i := 0; i < 200; i++ {
		a, b, c := uint32(rng.Intn(n+3)), uint32(rng.Intn(n+3)), uint32(rng.Intn(n+3))
		if i%4 == 0 {
			b = a
		}
		gotID, gotOK := ti.ID(a, b, c)
		wantID, wantOK := ref.ID(a, b, c)
		if gotID != wantID || gotOK != wantOK {
			t.Fatalf("ID(%d,%d,%d) = %d/%v, reference %d/%v", a, b, c, gotID, gotOK, wantID, wantOK)
		}
	}
}

// TestTriangleIndexMatchesRef runs the reference checks on the bench's own
// (3,4) input at two seeds, a complete graph, a skewed RMAT graph and a
// dense planted graph.
func TestTriangleIndexMatchesRef(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"bench1":  graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003),
		"bench2":  graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_004),
		"K7":      graph.Complete(7),
		"rmat":    graph.RMAT(10, 8, 0.57, 0.19, 0.19, 75),
		"planted": graph.PlantedCommunities(3, 20, 0.8, 30, 7),
	} {
		t.Run(name, func(t *testing.T) {
			checkAgainstRef(t, g, rand.New(rand.NewSource(1)))
			var sum int64
			for _, d := range newRefTriangleIndex(g).K4DegreePerTriangle(g) {
				sum += int64(d)
			}
			if got := CountK4(g); 4*got != sum {
				t.Fatalf("CountK4 = %d, reference degrees sum to %d", got, sum)
			}
		})
	}
}

// TestTriangleIndexIDRejects pins ID's answer for triples that are not
// triangles of the graph: (0, false), never a panic.
func TestTriangleIndexIDRejects(t *testing.T) {
	ti := BuildTriangleIndex(graph.Complete(5))
	for _, p := range [][3]uint32{{0, 1, 5}, {0, 1, 200}, {7, 8, 9}, {0, 0, 1}, {2, 1, 2}, {3, 3, 3}} {
		if id, ok := ti.ID(p[0], p[1], p[2]); ok || id != 0 {
			t.Fatalf("ID%v = %d/%v, want 0/false", p, id, ok)
		}
	}
	path := BuildTriangleIndex(graph.Path(4))
	if id, ok := path.ID(0, 1, 2); ok || id != 0 {
		t.Fatalf("path ID(0,1,2) = %d/%v, want 0/false", id, ok)
	}
}

// TestCheckCellIDs: triangle ids are int32, so an index of more than
// MaxInt32 triangles panics instead of wrapping. No test can build one;
// the check the builder runs on its int64 prefix sum is tested directly.
func TestCheckCellIDs(t *testing.T) {
	checkCellIDs(math.MaxInt32)
	defer func() {
		want := fmt.Sprintf("cliques: %d triangles exceed int32 cell ids", int64(math.MaxInt32)+1)
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	checkCellIDs(math.MaxInt32 + 1)
}

// FuzzK4Incidence builds a graph of at most 24 vertices from the bytes —
// bit i of data clears the i-th vertex pair's edge, so short inputs are
// dense and full of 4-cliques — and holds the positional index to the
// map-based reference (checkAgainstRef) and CountK4 to the naive count.
func FuzzK4Incidence(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(20), []byte{0x55, 0xaa, 0x0f})
	f.Add(uint8(12), []byte{0x91, 0x22, 0x48, 0x80, 0x13, 0x00, 0xc4})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 4 + int(nRaw)%21
		var edges [][2]uint32
		bit := 0
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if bit/8 >= len(data) || data[bit/8]>>(bit%8)&1 == 0 {
					edges = append(edges, [2]uint32{uint32(u), uint32(v)})
				}
				bit++
			}
		}
		g := graph.Build(n, edges)
		checkAgainstRef(t, g, rand.New(rand.NewSource(int64(nRaw)+int64(len(data)))))
		if got, want := CountK4(g), naiveK4(g); got != want {
			t.Fatalf("CountK4 = %d, naive %d", got, want)
		}
	})
}
