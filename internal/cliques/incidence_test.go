package cliques

import (
	"slices"
	"testing"

	"nucleus/internal/graph"
)

func incidenceTestGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Complete(8),
		graph.PlantedCommunities(4, 16, 0.5, 40, 3),
		graph.PowerLawCluster(400, 5, 0.5, 73),
		graph.RMAT(9, 6, 0.57, 0.19, 0.19, 75),
		graph.GnM(200, 800, 17),
		graph.Path(10),
		graph.Build(0, nil),
	}
}

// TestEdgeIncidenceMatchesOnTheFly checks every edge's flat row against the
// (euw, evw) pairs ForEachTriangleOfEdge discovers, as canonical rows: a
// stored row lists triangles in emission order, the on-the-fly merge by
// apex id.
func TestEdgeIncidenceMatchesOnTheFly(t *testing.T) {
	for gi, g := range incidenceTestGraphs() {
		inc := BuildEdgeIncidence(OrientEdges(g, 1), nil, 1)
		if len(inc.Offs) != int(g.M())+1 {
			t.Fatalf("graph %d: offs length %d, want %d", gi, len(inc.Offs), g.M()+1)
		}
		for e := int64(0); e < g.M(); e++ {
			var want []int32
			ForEachTriangleOfEdge(g, e, func(_ uint32, euw, evw int64) bool {
				want = append(want, int32(euw), int32(evw))
				return true
			})
			got := inc.Pairs[inc.Offs[e]:inc.Offs[e+1]]
			if !slices.Equal(canonicalPairs(got), canonicalPairs(want)) {
				t.Fatalf("graph %d edge %d: row %v, want %v as a multiset", gi, e, got, want)
			}
		}
	}
}

// checkEdgesAgainstRef holds the oriented (2,3) passes to the
// full-adjacency reference (ref_test.go) on g, at every thread count: the
// same per-edge degrees and Offs, every row equal as a multiset of
// co-member pairs, the arrays bit-identical across thread counts, and the
// degrees summing to three per triangle of the index.
func checkEdgesAgainstRef(t testing.TB, g *graph.Graph) {
	t.Helper()
	refDeg := refCountPerEdge(g, 2)
	refInc := refEdgeIncidence(g, nil, 2)
	var first *EdgeIncidence
	for _, threads := range []int{1, 2, 3, 8, 100} {
		o := OrientEdges(g, threads)
		if deg := o.CountPerEdge(threads); !slices.Equal(deg, refDeg) {
			t.Fatalf("threads %d: per-edge triangle counts differ from the reference", threads)
		}
		inc := BuildEdgeIncidence(o, nil, threads)
		if first != nil {
			if !slices.Equal(inc.Offs, first.Offs) || !slices.Equal(inc.Pairs, first.Pairs) {
				t.Fatalf("threads %d: edge incidence differs from the one-thread build", threads)
			}
			continue
		}
		first = inc
		if !slices.Equal(inc.Offs, refInc.Offs) {
			t.Fatalf("edge incidence offsets differ from the reference")
		}
		for e := 0; e+1 < len(inc.Offs); e++ {
			got, want := inc.Pairs[inc.Offs[e]:inc.Offs[e+1]], refInc.Pairs[refInc.Offs[e]:refInc.Offs[e+1]]
			if !slices.Equal(canonicalPairs(got), canonicalPairs(want)) {
				t.Fatalf("edge %d: row %v, reference %v", e, got, want)
			}
		}
	}
	var sum int64
	for _, d := range refDeg {
		sum += int64(d)
	}
	if tri := Count(g); 3*tri != sum {
		t.Fatalf("%d triangles indexed, reference degrees sum to %d", tri, sum)
	}
}

// TestEdgeIncidenceMatchesRef runs the reference checks on the bench's own
// input at two seeds, a complete graph, a skewed RMAT graph and a dense
// planted graph.
func TestEdgeIncidenceMatchesRef(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"bench1":  graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_003),
		"bench2":  graph.PlantedCommunities(12, 80, 0.3, 1200, 1_000_004),
		"K7":      graph.Complete(7),
		"rmat":    graph.RMAT(10, 8, 0.57, 0.19, 0.19, 75),
		"planted": graph.PlantedCommunities(3, 20, 0.8, 30, 7),
	} {
		t.Run(name, func(t *testing.T) { checkEdgesAgainstRef(t, g) })
	}
}

// FuzzEdgeIncidence builds a graph of at most 32 vertices from the bytes —
// bit i of data clears the i-th vertex pair's edge, so short inputs are
// dense and full of triangles — and holds the oriented (2,3) passes to the
// full-adjacency reference (checkEdgesAgainstRef).
func FuzzEdgeIncidence(f *testing.F) {
	f.Add(uint8(1), []byte{})
	f.Add(uint8(29), []byte{0x55, 0xaa, 0x0f})
	f.Add(uint8(12), []byte{0x91, 0x22, 0x48, 0x80, 0x13, 0x00, 0xc4})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 3 + int(nRaw)%30
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
		checkEdgesAgainstRef(t, graph.Build(n, edges))
	})
}

// TestK4IncidenceMatchesOnTheFly checks the flat 4-clique rows against
// ForEachK4OfTriangle, as canonical rows: a stored row lists 4-cliques in
// emission order, the on-the-fly walk by apex id.
func TestK4IncidenceMatchesOnTheFly(t *testing.T) {
	for gi, g := range incidenceTestGraphs() {
		ti := BuildTriangleIndex(g)
		inc := BuildK4Incidence(g, ti, nil, 1)
		if len(inc.Offs) != ti.Len()+1 {
			t.Fatalf("graph %d: offs length %d, want %d", gi, len(inc.Offs), ti.Len()+1)
		}
		for tr := 0; tr < ti.Len(); tr++ {
			var want []int32
			ti.ForEachK4OfTriangle(g, int32(tr), func(_ uint32, t1, t2, t3 int32) bool {
				want = append(want, t1, t2, t3)
				return true
			})
			got := inc.Triples[inc.Offs[tr]:inc.Offs[tr+1]]
			if !slices.Equal(canonicalRow(got), canonicalRow(want)) {
				t.Fatalf("graph %d triangle %d: row %v, want %v as a multiset", gi, tr, got, want)
			}
		}
	}
}

// TestIncidenceParallelMatchesSequential exercises the parallel fill paths
// (rows are written by disjoint workers, so the result must be identical
// bit for bit; run under -race this also proves the builders are
// data-race-free).
func TestIncidenceParallelMatchesSequential(t *testing.T) {
	for gi, g := range incidenceTestGraphs() {
		seqE := BuildEdgeIncidence(OrientEdges(g, 1), nil, 1)
		ti := BuildTriangleIndex(g)
		seqK := BuildK4Incidence(g, ti, nil, 1)
		for _, threads := range []int{2, 3, 8, 100} {
			parE := BuildEdgeIncidence(OrientEdges(g, threads), nil, threads)
			if !int64sEqual(seqE.Offs, parE.Offs) || !int32sEqual(seqE.Pairs, parE.Pairs) {
				t.Fatalf("graph %d threads %d: edge incidence differs from sequential", gi, threads)
			}
			parK := BuildK4Incidence(g, ti, nil, threads)
			if !int64sEqual(seqK.Offs, parK.Offs) || !int32sEqual(seqK.Triples, parK.Triples) {
				t.Fatalf("graph %d threads %d: K4 incidence differs from sequential", gi, threads)
			}
		}
	}
}

// TestK4DegreeParallelMatches checks the parallel degree initialization
// against the sequential one.
func TestK4DegreeParallelMatches(t *testing.T) {
	for gi, g := range incidenceTestGraphs() {
		ti := BuildTriangleIndex(g)
		want := ti.K4DegreePerTriangle(g)
		for _, threads := range []int{1, 2, 5, 64} {
			got := ti.K4DegreePerTriangleParallel(g, threads)
			if !int32sEqual(want, got) {
				t.Fatalf("graph %d threads %d: K4 degrees differ", gi, threads)
			}
		}
	}
}

// TestIncidenceBytesEstimates checks that the pre-build estimates equal
// the bytes actually held (the estimate is exact: counts are known before
// allocation).
func TestIncidenceBytesEstimates(t *testing.T) {
	g := graph.PlantedCommunities(4, 16, 0.5, 40, 3)
	deg := CountPerEdge(g)
	var sum int64
	for _, d := range deg {
		sum += int64(d)
	}
	inc := BuildEdgeIncidence(OrientEdges(g, 2), deg, 2)
	if est := EdgeIncidenceBytes(g.M(), sum); est != inc.Bytes() {
		t.Fatalf("edge estimate %d != actual %d", est, inc.Bytes())
	}
	ti := BuildTriangleIndex(g)
	kdeg := ti.K4DegreePerTriangle(g)
	sum = 0
	for _, d := range kdeg {
		sum += int64(d)
	}
	kinc := BuildK4Incidence(g, ti, kdeg, 2)
	if est := K4IncidenceBytes(int64(ti.Len()), sum); est != kinc.Bytes() {
		t.Fatalf("K4 estimate %d != actual %d", est, kinc.Bytes())
	}
}

func int32sEqual(a, b []int32) bool {
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

func int64sEqual(a, b []int64) bool {
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

// canonicalPairs renders a (2,3) incidence row independently of triangle
// and co-member order: its pairs, each sorted, in sorted order.
func canonicalPairs(row []int32) [][2]int32 {
	out := make([][2]int32, len(row)/2)
	for i := range out {
		out[i] = [2]int32{min(row[2*i], row[2*i+1]), max(row[2*i], row[2*i+1])}
	}
	slices.SortFunc(out, func(a, b [2]int32) int { return slices.Compare(a[:], b[:]) })
	return out
}

// canonicalRow renders a (3,4) incidence row independently of 4-clique and
// co-member order: its triples, each sorted, in sorted order.
func canonicalRow(row []int32) [][3]int32 {
	out := make([][3]int32, len(row)/3)
	for i := range out {
		tr := [3]int32{row[3*i], row[3*i+1], row[3*i+2]}
		slices.Sort(tr[:])
		out[i] = tr
	}
	slices.SortFunc(out, func(a, b [3]int32) int { return slices.Compare(a[:], b[:]) })
	return out
}
