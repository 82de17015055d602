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
// count: the list refTriangleList lays out of the index is the reference's,
// every triangle's vertices (Triangle, searched and through WithSlots'
// tables) are its entry in that list, its id in all six vertex orders
// round-trips through ID, the same K4 degrees and Offs, every row equal as a multiset of co-member
// triples, arrays bit-identical across thread counts, and ID on random
// triples — out of range and repeated vertices included — equal to the
// reference's answer. The one-pass incidence (degrees counted off the
// 4-cliques) is bit-identical to the two-pass one (count pass first), also
// at a budget of exactly its size, and gives up one byte below it. The
// index a truss group pass leaves in the graph's memo is array for array
// the cold build's, and a pass one byte short of its budget leaves none
// (checkTrussPassIndex).
func checkAgainstRef(t testing.TB, g *graph.Graph, rng *rand.Rand) {
	t.Helper()
	ref := newRefTriangleIndex(g)
	refDeg := ref.K4DegreePerTriangle(g)
	refInc := refK4Incidence(g, ref, 2)
	var first *K4Incidence
	for _, threads := range []int{1, 2, 3, 4, 8, 100} {
		ti := BuildTriangleIndexThreads(g, threads)
		list := refTriangleList(ti, threads)
		if !slices.Equal(list, ref.List) {
			t.Fatalf("threads %d: triangle list differs from the reference", threads)
		}
		checkTrussPassIndex(t, g, ti, threads)
		fast := ti.WithSlots(threads)
		for i, tr := range list {
			if got, viaSlots := ti.Triangle(int32(i)), fast.Triangle(int32(i)); got != tr || viaSlots != tr {
				t.Fatalf("threads %d: Triangle(%d) = %v, with slots %v, want %v", threads, i, got, viaSlots, tr)
			}
			a, b, c := tr[0], tr[1], tr[2]
			for _, p := range [][3]uint32{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}} {
				if id, ok := ti.ID(p[0], p[1], p[2]); !ok || id != int32(i) {
					t.Fatalf("threads %d: ID%v = %d/%v, want %d", threads, p, id, ok, i)
				}
			}
		}
		deg := ti.K4DegreePerTriangleParallel(g, threads)
		if !slices.Equal(deg, refDeg) {
			t.Fatalf("threads %d: K4 degrees differ from the reference", threads)
		}
		inc := K4IncidenceWithin(ti, -1, threads)
		two := BuildK4Incidence(g, ti, deg, threads)
		if !slices.Equal(inc.Deg, deg) || !slices.Equal(inc.Offs, two.Offs) || !slices.Equal(inc.Triples, two.Triples) {
			t.Fatalf("threads %d: one-pass K4 incidence differs from the two-pass build", threads)
		}
		size := K4IncidenceBytes(int64(ti.Len()), sum32(deg))
		if at := K4IncidenceWithin(ti, size, threads); at == nil || !slices.Equal(at.Triples, two.Triples) || at.Bytes() != size {
			t.Fatalf("threads %d: no identical index within a budget of its size %d", threads, size)
		}
		if K4IncidenceWithin(ti, size-1, threads) != nil {
			t.Fatalf("threads %d: an index of %d bytes built within %d", threads, size, size-1)
		}
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
	ti := BuildTriangleIndexThreads(g, 1)
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

// checkTrussPassIndex holds the index the truss group pass leaves in the
// memo of a fresh copy of g to want, the cold build at the same thread
// count, array for array — the orientation's edge ids dropped — unlimited
// and at a budget of exactly the incidence plus TriangleIndexBytes, which
// is what want holds. One byte less builds the incidence and leaves no
// index; a pass refused one byte short of the incidence leaves none.
func checkTrussPassIndex(t testing.TB, g *graph.Graph, want *TriangleIndex, threads int) {
	t.Helper()
	held := 4*int64(len(want.rank)) + 8*int64(len(want.off)) + 4*int64(len(want.adj)) + 4*int64(len(want.tOff)) + 2*int64(len(want.apex))
	if size := TriangleIndexBytes(g.N(), g.M(), int64(want.Len())); size != held {
		t.Fatalf("TriangleIndexBytes = %d, the index holds %d", size, held)
	}
	incBytes := EdgeIncidenceWithin(OrientEdges(graph.Build(g.N(), g.Edges()), threads), -1, threads).Bytes()
	for _, c := range []struct {
		budget          int64
		incidence, left bool
	}{{-1, true, true}, {incBytes + held, true, true}, {incBytes + held - 1, true, false}, {incBytes - 1, false, false}} {
		h := graph.Build(g.N(), g.Edges())
		inc := EdgeIncidenceWithin(OrientEdges(h, threads), c.budget, threads)
		got, none := graph.Memo(h, indexKey{}, func() *TriangleIndex { return nil })
		if (inc != nil) != c.incidence || none == c.left || (c.left && !sameIndex(got, want)) {
			t.Fatalf("threads %d, budget %d (incidence %d, index %d bytes): built the incidence %v, left an index %v (the cold one: %v), want %v, %v",
				threads, c.budget, incBytes, held, inc != nil, !none, !none && sameIndex(got, want), c.incidence, c.left)
		}
	}
}

// sameIndex reports whether a and b hold equal arrays, array for array
// (an empty array and none alike), and neither holds edge ids or slots.
func sameIndex(a, b *TriangleIndex) bool {
	return slices.Equal(a.rank, b.rank) && slices.Equal(a.off, b.off) && slices.Equal(a.adj, b.adj) &&
		slices.Equal(a.tOff, b.tOff) && slices.Equal(a.apex, b.apex) &&
		a.eid == nil && b.eid == nil && a.slot == nil && b.slot == nil && a.owner == nil && b.owner == nil
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
	ti := BuildTriangleIndexThreads(graph.Complete(5), 1)
	for _, p := range [][3]uint32{{0, 1, 5}, {0, 1, 200}, {7, 8, 9}, {0, 0, 1}, {2, 1, 2}, {3, 3, 3}} {
		if id, ok := ti.ID(p[0], p[1], p[2]); ok || id != 0 {
			t.Fatalf("ID%v = %d/%v, want 0/false", p, id, ok)
		}
	}
	path := BuildTriangleIndexThreads(graph.Path(4), 1)
	if id, ok := path.ID(0, 1, 2); ok || id != 0 {
		t.Fatalf("path ID(0,1,2) = %d/%v, want 0/false", id, ok)
	}
}

// TestCheckCellIDs: triangle ids are int32, so an index of more than
// MaxInt32 triangles panics instead of wrapping. No test can build one;
// the check finish runs on its int64 prefix sum is tested on row counts.
func TestCheckCellIDs(t *testing.T) {
	(&TriangleIndex{tOff: []int32{0, math.MaxInt32}}).finish()
	defer func() {
		want := fmt.Sprintf("cliques: %d triangles exceed int32 cell ids", int64(math.MaxInt32)+1)
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
	}()
	(&TriangleIndex{tOff: []int32{0, math.MaxInt32, 1}}).finish()
}

// FuzzK4Incidence builds a graph of at most 24 vertices from the bytes —
// bit i of data clears the i-th vertex pair's edge, so short inputs are
// dense and full of 4-cliques — and holds the positional index to the
// map-based reference and the truss pass's index to the cold build
// (checkAgainstRef), and CountK4 to the naive count.
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
