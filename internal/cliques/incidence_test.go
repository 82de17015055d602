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

// TestEdgeIncidenceMatchesOnTheFly checks that, for every edge, the flat
// row reproduces exactly the (euw, evw) pairs ForEachTriangleOfEdge
// discovers, in the same order.
func TestEdgeIncidenceMatchesOnTheFly(t *testing.T) {
	for gi, g := range incidenceTestGraphs() {
		inc := BuildEdgeIncidence(g, nil, 1)
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
			if len(got) != len(want) {
				t.Fatalf("graph %d edge %d: row length %d, want %d", gi, e, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("graph %d edge %d entry %d: %d, want %d", gi, e, i, got[i], want[i])
				}
			}
		}
	}
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
		seqE := BuildEdgeIncidence(g, nil, 1)
		ti := BuildTriangleIndex(g)
		seqK := BuildK4Incidence(g, ti, nil, 1)
		for _, threads := range []int{2, 3, 8, 100} {
			parE := BuildEdgeIncidence(g, nil, threads)
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
	inc := BuildEdgeIncidence(g, deg, 2)
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
