// Black-box tests for Flat, its three builders and the adaptive Build
// constructor. The external test package lets these run the localhi and
// peel engines (which import nucleus) on both sides of the §5 fork and
// demand identical decompositions.
package nucleus_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// flatCase is one way of building a Flat: the table every test below runs
// over.
type flatCase struct {
	name  string
	r, s  int
	build func(g *graph.Graph, threads int) *nucleus.Flat
}

func generic(r, s int) flatCase {
	return flatCase{fmt.Sprintf("generic(%d,%d)", r, s), r, s,
		func(g *graph.Graph, threads int) *nucleus.Flat { return nucleus.NewFlat(g, r, s, threads) }}
}

// The two family builders number cells by edge / triangle id; the generic
// builder numbers them in clique enumeration order, at (2,3) and (3,4) too.
var flatCases = []flatCase{
	{"edge", 2, 3, nucleus.NewFlatTruss},
	{"k4", 3, 4, nucleus.NewFlatN34},
	generic(1, 2), generic(1, 3), generic(1, 4), generic(2, 3), generic(2, 4), generic(3, 4),
}

// propertyGraphs returns the seeded random graphs the agreement properties
// run on: dense, skewed, sparse and degenerate shapes.
func propertyGraphs() []*graph.Graph {
	gs := []*graph.Graph{
		graph.Complete(7),
		graph.Figure2(),
		graph.PlantedCommunities(3, 12, 0.6, 30, 5),
		graph.PowerLawCluster(300, 5, 0.5, 9),
		graph.Path(6),
		graph.Build(0, nil),
	}
	rng := rand.New(rand.NewSource(1234))
	for i := 0; i < 4; i++ {
		n := 30 + rng.Intn(60)
		m := n * (2 + rng.Intn(4))
		gs = append(gs, graph.GnM(n, m, rng.Int63()))
	}
	return gs
}

// smallGraphs are sized for the enumerating builder and the Hyper oracle.
func smallGraphs() []*graph.Graph {
	gs := []*graph.Graph{graph.Complete(6), graph.Figure2(), graph.Path(6), graph.Build(0, nil)}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		n, m := 8+rng.Intn(14), 20+rng.Intn(40)
		edges := make([][2]uint32, m) // repeats and loops allowed: Build drops them
		for j := range edges {
			edges[j] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
		}
		gs = append(gs, graph.Build(n, edges))
	}
	return gs
}

func vertexKey(inst nucleus.Instance, c int32) string {
	vs := inst.CellVertices(c, nil)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return fmt.Sprint(vs)
}

// byVertexSet renders an instance independently of its cell numbering:
// each cell's vertex set maps to the sorted multiset of its s-cliques,
// every s-clique being the sorted vertex sets of its co-member cells.
func byVertexSet(inst nucleus.Instance) map[string][]string {
	out := make(map[string][]string, inst.NumCells())
	for c := int32(0); c < int32(inst.NumCells()); c++ {
		groups := []string{}
		for _, others := range nucleustest.Groups(inst, c) {
			keys := make([]string, len(others))
			for i, d := range others {
				keys[i] = vertexKey(inst, d)
			}
			sort.Strings(keys)
			groups = append(groups, fmt.Sprint(keys))
		}
		sort.Strings(groups)
		out[vertexKey(inst, c)] = groups
	}
	return out
}

// kappaByVertexSet keys a per-cell result by the cells' vertex sets.
func kappaByVertexSet(inst nucleus.Instance, kappa []int32) map[string]int32 {
	out := make(map[string]int32, len(kappa))
	for c, k := range kappa {
		out[vertexKey(inst, int32(c))] = k
	}
	return out
}

// TestFlatRSMatchesHyper checks every builder against the explicit
// hypergraph oracle by vertex-set key: the same cells, each in the same
// s-cliques with the same co-members, and the same peeled κ.
func TestFlatRSMatchesHyper(t *testing.T) {
	for gi, g := range smallGraphs() {
		for _, tc := range flatCases {
			f := tc.build(g, 1+gi%4)
			h := nucleustest.NewHyper(g, tc.r, tc.s)
			if f.R() != tc.r || f.S() != tc.s {
				t.Fatalf("%s: (r,s) = (%d,%d)", tc.name, f.R(), f.S())
			}
			if got, want := byVertexSet(f), byVertexSet(h); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d %s: incidence differs from hyper:\n got %v\nwant %v", gi, tc.name, got, want)
			}
			got := kappaByVertexSet(f, peel.Run(f).Kappa)
			if want := kappaByVertexSet(h, peel.Run(h).Kappa); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d %s: κ differs from hyper:\n got %v\nwant %v", gi, tc.name, got, want)
			}
		}
	}
}

// TestFlatGenericMatchesFamilyBuilder: at (2,3) and (3,4) the enumerating
// builder and the family's incidence builder describe the same instance
// under two cell numberings.
func TestFlatGenericMatchesFamilyBuilder(t *testing.T) {
	for gi, g := range smallGraphs() {
		for _, pair := range [][2]flatCase{{generic(2, 3), flatCases[0]}, {generic(3, 4), flatCases[1]}} {
			gen, fam := pair[0].build(g, 2), pair[1].build(g, 2)
			if !reflect.DeepEqual(byVertexSet(gen), byVertexSet(fam)) {
				t.Fatalf("graph %d: %s and %s builders disagree on the incidence", gi, pair[0].name, pair[1].name)
			}
			got := kappaByVertexSet(gen, localhi.And(gen, localhi.Options{Notification: true}).Tau)
			want := kappaByVertexSet(fam, localhi.And(fam, localhi.Options{Notification: true}).Tau)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d: %s and %s builders disagree on κ", gi, pair[0].name, pair[1].name)
			}
		}
	}
}

// TestFlatRSCellID pins the generic builder's cell numbering: cell c is
// the c-th r-clique of the enumeration, which is also Hyper's numbering.
func TestFlatRSCellID(t *testing.T) {
	g := graph.PlantedCommunities(2, 8, 0.7, 6, 3)
	for _, tc := range flatCases[2:] {
		f, h := tc.build(g, 3), nucleustest.NewHyper(g, tc.r, tc.s)
		for c := int32(0); c < int32(f.NumCells()); c++ {
			if got := h.CellID(f.CellVertices(c, nil)); got != c {
				t.Fatalf("%s: cell %d is hyper's cell %d", tc.name, c, got)
			}
			if f.CellLabel(c) == "" {
				t.Fatalf("%s: empty label for cell %d", tc.name, c)
			}
		}
	}
}

// TestFlatRSBuildDeterministicAcrossThreads asserts the built arrays are
// byte-identical at every worker count (slot assignment follows
// enumeration order, not scheduling).
func TestFlatRSBuildDeterministicAcrossThreads(t *testing.T) {
	g := graph.PowerLawCluster(120, 6, 0.5, 3)
	for _, tc := range flatCases {
		ref := tc.build(g, 1).Rows()
		for _, threads := range []int{2, 4, 8} {
			if rows := tc.build(g, threads).Rows(); !reflect.DeepEqual(rows, ref) {
				t.Fatalf("%s threads=%d: arrays differ from sequential build", tc.name, threads)
			}
		}
	}
}

// TestFlatRowsCoArity pins the co-arity each builder reports: an
// s-clique has C(s,r) member cells, one of which is the cell itself.
func TestFlatRowsCoArity(t *testing.T) {
	g := graph.Complete(6)
	want := map[[2]int]int{{1, 2}: 1, {1, 3}: 2, {1, 4}: 3, {2, 3}: 2, {2, 4}: 5, {3, 4}: 3}
	for _, tc := range flatCases {
		if co := tc.build(g, 1).Rows().Co; co != want[[2]int{tc.r, tc.s}] {
			t.Fatalf("%s: coArity %d, want %d", tc.name, co, want[[2]int{tc.r, tc.s}])
		}
	}
}

// TestFlatRSRowsContract pins what the row loops rely on: rows are
// contiguous, co-arity sized, as long as the degree says, and Row hands
// out the very slices of the arrays, leaving the buffer untouched.
func TestFlatRSRowsContract(t *testing.T) {
	g := graph.PlantedCommunities(3, 12, 0.5, 20, 9)
	for _, tc := range flatCases {
		f := tc.build(g, 2)
		rows := f.Rows()
		offs, members, co := rows.Offs, rows.Mem, rows.Co
		if len(offs) != f.NumCells()+1 || offs[f.NumCells()] != int64(len(members)) {
			t.Fatalf("%s: %d offsets ending at %d for %d cells and %d members",
				tc.name, len(offs), offs[len(offs)-1], f.NumCells(), len(members))
		}
		if f.IndexBytes() != 8*int64(len(offs))+4*int64(len(members)) {
			t.Fatalf("%s: IndexBytes %d does not match the arrays", tc.name, f.IndexBytes())
		}
		deg := f.Degrees()
		for c := 0; c < f.NumCells(); c++ {
			row := members[offs[c]:offs[c+1]]
			if len(row) != co*int(deg[c]) {
				t.Fatalf("%s cell %d: row length %d, want %d", tc.name, c, len(row), co*int(deg[c]))
			}
			var buf []int32
			if got := rows.Row(int32(c), &buf); len(row) > 0 && &got[0] != &row[0] || len(got) != len(row) || buf != nil {
				t.Fatalf("%s cell %d: Row %v (buffer %v), want the stored row %v in place", tc.name, c, got, buf, row)
			}
		}
	}
}

func TestFlatRSInvalidPanics(t *testing.T) {
	for _, rs := range [][2]int{{0, 2}, {2, 2}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFlat(g, %d, %d) did not panic", rs[0], rs[1])
				}
			}()
			nucleus.NewFlat(graph.Complete(4), rs[0], rs[1], 1)
		}()
	}
}

// assertSameInstance demands that a family's stored (Flat) and on-the-fly
// instances are interchangeable: same cell ids, degrees, s-cliques, labels
// and vertices, and the same κ under every engine.
func assertSameInstance(t *testing.T, gi int, ref, flat nucleus.Instance) {
	t.Helper()
	if _, ok := flat.(*nucleus.Flat); !ok {
		t.Fatalf("graph %d: Build returned %T, want *Flat", gi, flat)
	}
	if ref.Rows().Offs != nil {
		t.Fatalf("graph %d: budget 0 returned %T, an instance with stored rows", gi, ref)
	}
	if !reflect.DeepEqual(ref.Degrees(), flat.Degrees()) {
		t.Fatalf("graph %d: degrees differ", gi)
	}
	if !reflect.DeepEqual(byVertexSet(ref), byVertexSet(flat)) {
		t.Fatalf("graph %d: s-clique incidence differs", gi)
	}
	for c := int32(0); c < int32(ref.NumCells()); c++ {
		if ref.CellLabel(c) != flat.CellLabel(c) {
			t.Fatalf("graph %d cell %d: labels %q vs %q", gi, c, ref.CellLabel(c), flat.CellLabel(c))
		}
		if rv, fv := ref.CellVertices(c, nil), flat.CellVertices(c, nil); !reflect.DeepEqual(rv, fv) {
			t.Fatalf("graph %d cell %d: vertices %v vs %v", gi, c, rv, fv)
		}
	}
	for name, run := range map[string]func(nucleus.Instance) []int32{
		"peel": func(i nucleus.Instance) []int32 { return peel.Run(i).Kappa },
		"snd":  func(i nucleus.Instance) []int32 { return localhi.Snd(i, localhi.Options{}).Tau },
		"and": func(i nucleus.Instance) []int32 {
			return localhi.And(i, localhi.Options{Notification: true}).Tau
		},
		"and-par": func(i nucleus.Instance) []int32 {
			return localhi.And(i, localhi.Options{Threads: 4, Notification: true}).Tau
		},
	} {
		if want, got := run(ref), run(flat); !reflect.DeepEqual(want, got) {
			t.Fatalf("graph %d engine %s: κ differs", gi, name)
		}
	}
}

func testFlatMatchesOnTheFly(t *testing.T, fam nucleus.Family) {
	for gi, g := range propertyGraphs() {
		ref, _ := nucleus.Build(g, fam, 0, 2)
		flat, _ := nucleus.Build(g, fam, -1, 2)
		assertSameInstance(t, gi, ref, flat)
	}
}

func TestIndexedTrussMatchesTruss(t *testing.T) { testFlatMatchesOnTheFly(t, nucleus.FamilyTruss) }

// TestDiscoveredRowsMatchStored covers every cell of the on-the-fly Truss
// and N34 on the generator families: each discovered row equals Flat's
// stored row of the same cell, and Hyper's row of the same vertex set, as
// a multiset of sorted co-member groups — whatever order the discovery
// finds the s-cliques in. The rows are read through one buffer, reused
// from cell to cell.
func TestDiscoveredRowsMatchStored(t *testing.T) {
	gs := map[string]*graph.Graph{
		"complete":           graph.Complete(8),
		"cliqueChain":        graph.CliqueChain(3, 5),
		"gnm":                graph.GnM(60, 240, 1),
		"barabasiAlbert":     graph.BarabasiAlbert(60, 4, 2),
		"rmat":               graph.RMAT(6, 4, 0.45, 0.22, 0.22, 3),
		"wattsStrogatz":      graph.WattsStrogatz(48, 6, 0.2, 4),
		"plantedCommunities": graph.PlantedCommunities(3, 10, 0.5, 12, 5),
		"powerLawCluster":    graph.PowerLawCluster(50, 4, 0.5, 6),
	}
	// groups renders a row as its sorted multiset of sorted groups.
	groups := func(row []int32, co int) []string {
		var out []string
		for ; len(row) >= co; row = row[co:] {
			grp := slices.Clone(row[:co])
			slices.Sort(grp)
			out = append(out, fmt.Sprint(grp))
		}
		sort.Strings(out)
		return out
	}
	for name, g := range gs {
		for _, fam := range []nucleus.Family{nucleus.FamilyTruss, nucleus.FamilyN34} {
			found, _ := nucleus.Build(g, fam, 0, 2)
			stored, _ := nucleus.Build(g, fam, -1, 2)
			fr, sr := found.Rows(), stored.Rows()
			if fr.Offs != nil || fr.Co != sr.Co {
				t.Fatalf("%s %v: discovered rows have arrays %v or co-arity %d against %d", name, fam, fr.Offs != nil, fr.Co, sr.Co)
			}
			var buf, none []int32
			for c := int32(0); c < int32(found.NumCells()); c++ {
				if got, want := groups(fr.Row(c, &buf), fr.Co), groups(sr.Row(c, &none), sr.Co); !slices.Equal(got, want) {
					t.Fatalf("%s %v cell %s: discovered row %v, stored %v", name, fam, found.CellLabel(c), got, want)
				}
			}
			h := nucleustest.NewHyper(g, int(fam)+1, int(fam)+2)
			if !reflect.DeepEqual(byVertexSet(found), byVertexSet(h)) {
				t.Fatalf("%s %v: discovered rows differ from the hypergraph's", name, fam)
			}
		}
	}
}

func TestIndexedN34MatchesN34(t *testing.T) { testFlatMatchesOnTheFly(t, nucleus.FamilyN34) }

func TestBuildBudgetAdaptivity(t *testing.T) {
	g := graph.PlantedCommunities(3, 12, 0.6, 30, 5)

	inst, rep := nucleus.Build(g, nucleus.FamilyTruss, -1, 2) // unlimited
	if f, ok := inst.(*nucleus.Flat); !ok || !rep.Indexed || f.R() != 2 {
		t.Fatalf("unlimited budget: got %T (indexed=%v), want a (2,3) *Flat", inst, rep.Indexed)
	}
	if rep.IndexBytes != rep.EstimatedBytes {
		t.Fatalf("estimate %d != actual %d", rep.EstimatedBytes, rep.IndexBytes)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyTruss, 16, 2) // far too small
	if _, ok := inst.(*nucleus.Truss); !ok || rep.Indexed {
		t.Fatalf("tiny budget: got %T (indexed=%v), want on-the-fly *Truss", inst, rep.Indexed)
	}
	if rep.Reason == "" || rep.EstimatedBytes <= 16 {
		t.Fatalf("tiny budget: want an over-budget reason and estimate > 16, got %+v", rep)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyTruss, 0, 2) // disabled
	if _, ok := inst.(*nucleus.Truss); !ok || rep.Indexed || rep.Reason == "" {
		t.Fatalf("disabled: got %T (%+v), want *Truss with a reason", inst, rep)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyN34, -1, 2)
	if f, ok := inst.(*nucleus.Flat); !ok || !rep.Indexed || f.R() != 3 || rep.IndexBytes != rep.EstimatedBytes {
		t.Fatalf("n34 unlimited: got %T (%+v), want a (3,4) *Flat of the estimated size", inst, rep)
	}
	inst, rep = nucleus.Build(g, nucleus.FamilyN34, 16, 2)
	if _, ok := inst.(*nucleus.N34); !ok || rep.Indexed {
		t.Fatalf("n34 tiny budget: got %T (indexed=%v), want *N34", inst, rep.Indexed)
	}

	inst, rep = nucleus.Build(g, nucleus.FamilyCore, -1, 2)
	if _, ok := inst.(*nucleus.Core); !ok || rep.Indexed {
		t.Fatalf("core: got %T (indexed=%v), want *Core", inst, rep.Indexed)
	}
}

// twoPass builds fam's stored rows the way Build did before it enumerated
// each s-clique once: the count pass, then the group pass laid out by the
// counted degrees.
func twoPass(g *graph.Graph, fam nucleus.Family, threads int) (offs []int64, mem, deg []int32) {
	if fam == nucleus.FamilyTruss {
		o := cliques.OrientEdges(g, threads)
		deg = o.CountPerEdge(threads)
		inc := cliques.BuildEdgeIncidence(o, deg, threads)
		return inc.Offs, inc.Pairs, deg
	}
	ti := cliques.BuildTriangleIndexThreads(g, threads)
	deg = ti.K4DegreePerTriangleParallel(g, threads)
	inc := cliques.BuildK4Incidence(g, ti, deg, threads)
	return inc.Offs, inc.Triples, deg
}

// TestBuildOnePassBudgetBoundary: Build's stored truss and (3,4) rows,
// their degrees counted off the one enumeration, are bit-identical to the
// two-pass build at every thread count. A budget of exactly the index size
// still indexes; one byte less falls back to the on-the-fly instance with
// the exact estimate and the over-budget reason, and budget 0 with the
// disabled reason.
func TestBuildOnePassBudgetBoundary(t *testing.T) {
	for gi, g := range []*graph.Graph{
		graph.PlantedCommunities(3, 12, 0.6, 30, 5),
		graph.RMAT(8, 8, 0.57, 0.19, 0.19, 3),
		graph.Complete(7),
		graph.Path(6),
	} {
		for _, fam := range []nucleus.Family{nucleus.FamilyTruss, nucleus.FamilyN34} {
			for _, threads := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("g%d %s threads %d", gi, fam, threads)
				offs, mem, deg := twoPass(g, fam, threads)
				size := 8*int64(len(offs)) + 4*int64(len(mem))
				inst, rep := nucleus.Build(g, fam, size, threads)
				f, ok := inst.(*nucleus.Flat)
				if !ok || !rep.Indexed || rep.IndexBytes != size || rep.EstimatedBytes != size {
					t.Fatalf("%s: budget = size %d: got %T %+v, want the index", name, size, inst, rep)
				}
				rows := f.Rows()
				if !slices.Equal(rows.Offs, offs) || !slices.Equal(rows.Mem, mem) || !slices.Equal(f.Degrees(), deg) {
					t.Fatalf("%s: one-pass rows differ from the two-pass build", name)
				}
				for budget, reason := range map[int64]string{
					size - 1: fmt.Sprintf("estimated index size %d exceeds budget %d", size, size-1),
					0:        "indexing disabled (budget 0)",
				} {
					inst, rep := nucleus.Build(g, fam, budget, threads)
					if _, ok := inst.(*nucleus.Flat); ok || rep.Indexed || rep.EstimatedBytes != size || rep.Reason != reason {
						t.Fatalf("%s: budget %d: got %T %+v, want the on-the-fly instance, estimate %d, reason %q",
							name, budget, inst, rep, size, reason)
					}
					if !slices.Equal(inst.Degrees(), deg) {
						t.Fatalf("%s: budget %d: on-the-fly degrees differ from the counted ones", name, budget)
					}
				}
			}
		}
	}
}

func TestParseFamily(t *testing.T) {
	for s, want := range map[string]nucleus.Family{
		"": nucleus.FamilyCore, "core": nucleus.FamilyCore, "kcore": nucleus.FamilyCore, "12": nucleus.FamilyCore,
		"truss": nucleus.FamilyTruss, "ktruss": nucleus.FamilyTruss, "23": nucleus.FamilyTruss,
		"n34": nucleus.FamilyN34, "34": nucleus.FamilyN34, "nucleus34": nucleus.FamilyN34,
	} {
		got, err := nucleus.ParseFamily(s)
		if err != nil || got != want {
			t.Fatalf("ParseFamily(%q) = %v, %v", s, got, err)
		}
		if s != "" && !slices.Contains(got.Spellings(), s) {
			t.Fatalf("%v.Spellings() = %q, missing %q", got, got.Spellings(), s)
		}
	}
	for f, rs := range map[nucleus.Family][3]any{
		nucleus.FamilyCore: {"core", 1, 2}, nucleus.FamilyTruss: {"truss", 2, 3}, nucleus.FamilyN34: {"n34", 3, 4},
	} {
		if r, s := f.RS(); f.String() != rs[0] || r != rs[1] || s != rs[2] {
			t.Fatalf("Family %d: String %q, RS (%d,%d), want %v", int(f), f.String(), r, s, rs)
		}
	}
	_, err := nucleus.ParseFamily("quux")
	if want := `unknown decomposition "quux" (want core, truss or n34)`; err == nil || err.Error() != want {
		t.Fatalf("ParseFamily(quux) = %v, want %q", err, want)
	}
}
