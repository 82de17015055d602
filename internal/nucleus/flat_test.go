// Black-box tests for Flat, its three builders and the adaptive Build
// constructor. The external test package lets these run the localhi and
// peel engines (which import nucleus) on both sides of the §5 fork and
// demand identical decompositions.
package nucleus_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

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
		inst.VisitSCliques(c, func(others []int32) bool {
			keys := make([]string, len(others))
			for i, d := range others {
				keys[i] = vertexKey(inst, d)
			}
			sort.Strings(keys)
			groups = append(groups, fmt.Sprint(keys))
			return true
		})
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

// TestFlatIncidenceArrays pins the co-arity each builder reports: an
// s-clique has C(s,r) member cells, one of which is the cell itself.
func TestFlatIncidenceArrays(t *testing.T) {
	g := graph.Complete(6)
	want := map[[2]int]int{{1, 2}: 1, {1, 3}: 2, {1, 4}: 3, {2, 3}: 2, {2, 4}: 5, {3, 4}: 3}
	for _, tc := range flatCases {
		var fi nucleus.FlatIncidence = tc.build(g, 1)
		if co := fi.Rows().Co; co != want[[2]int{tc.r, tc.s}] {
			t.Fatalf("%s: coArity %d, want %d", tc.name, co, want[[2]int{tc.r, tc.s}])
		}
	}
}

// TestFlatRSFlatIncidenceContract pins what the localhi fused kernel
// relies on: rows are contiguous, co-arity sized, as long as the degree
// says, and the very slices VisitSCliques hands out.
func TestFlatRSFlatIncidenceContract(t *testing.T) {
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
			var visited []int32
			f.VisitSCliques(int32(c), func(others []int32) bool {
				visited = append(visited, others...)
				return true
			})
			if !reflect.DeepEqual(visited, append([]int32(nil), row...)) {
				t.Fatalf("%s cell %d: VisitSCliques %v, row %v", tc.name, c, visited, row)
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
// and vertices, and the same κ under every engine, including the fused
// kernel the flat instance triggers inside localhi.
func assertSameInstance(t *testing.T, gi int, ref, flat nucleus.Instance) {
	t.Helper()
	if _, ok := flat.(*nucleus.Flat); !ok {
		t.Fatalf("graph %d: Build returned %T, want *Flat", gi, flat)
	}
	if _, ok := nucleus.RowsOf(ref); ok {
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

func TestParseFamily(t *testing.T) {
	for s, want := range map[string]nucleus.Family{
		"core": nucleus.FamilyCore, "truss": nucleus.FamilyTruss, "n34": nucleus.FamilyN34,
	} {
		got, err := nucleus.ParseFamily(s)
		if err != nil || got != want {
			t.Fatalf("ParseFamily(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Family(%q).String() = %q", s, got.String())
		}
	}
	if _, err := nucleus.ParseFamily("quux"); err == nil {
		t.Fatal("ParseFamily(quux): want error")
	}
}
