package nucleus_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// copyOf returns a fresh graph with g's vertices and edges: an empty memo,
// so the first truss or (3,4) build on it finds no triangle index.
func copyOf(g *graph.Graph) *graph.Graph { return graph.Build(g.N(), g.Edges()) }

// build is Build of a family, the report dropped.
func build(g *graph.Graph, fam nucleus.Family, budget int64, threads int) nucleus.Instance {
	inst, _ := nucleus.Build(g, fam, budget, threads)
	return inst
}

// TestTriangleIndexSharedAcrossFamilies: a graph keeps one triangle index,
// left by whichever stored truss or (3,4) build comes first, and which one
// it was cannot be seen. In every order — truss then (3,4), (3,4) then
// truss, (3,4) alone, a truss build stored one byte short of room for the
// triangle index beside it then (3,4), and a truss build refused one byte
// short of its incidence then (3,4) — the (3,4) instance has the degrees, rows, cells, cell
// vertices and κ (peel and AND) of a cold build on a fresh copy of the
// graph, itself checked against the cliques package's own index, and the
// stored truss rows are the cold ones.
func TestTriangleIndexSharedAcrossFamilies(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"planted":  graph.PlantedCommunities(4, 16, 0.5, 40, 3),
		"rmat":     graph.RMAT(9, 6, 0.57, 0.19, 0.19, 75),
		"powerlaw": graph.PowerLawCluster(300, 5, 0.5, 73),
		"gnm":      graph.GnM(200, 1500, 17),
	} {
		for _, threads := range []int{1, 2, 4} {
			cold := copyOf(g)
			want := build(cold, nucleus.FamilyN34, -1, threads).(*nucleus.Flat)
			wantTruss := build(copyOf(g), nucleus.FamilyTruss, -1, threads).(*nucleus.Flat)
			ti := cliques.BuildTriangleIndexThreads(copyOf(g), threads)
			inc := cliques.K4IncidenceWithin(ti, -1, threads)
			if want.NumCells() != ti.Len() || !slices.Equal(want.Rows().Offs, inc.Offs) || !slices.Equal(want.Rows().Mem, inc.Triples) {
				t.Fatalf("%s threads %d: the cold (3,4) build differs from the cliques index", name, threads)
			}
			for c := range int32(ti.Len()) {
				if tri := ti.Triangle(c); !slices.Equal(want.CellVertices(c, nil), tri[:]) {
					t.Fatalf("%s threads %d: cold cell %d has vertices %v, the index %v", name, threads, c, want.CellVertices(c, nil), tri)
				}
			}
			wantKappa := peel.Run(want).Kappa
			trussBytes := wantTruss.IndexBytes()
			indexBytes := cliques.TriangleIndexBytes(g.N(), g.M(), int64(ti.Len()))

			for order, run := range map[string]func(h *graph.Graph) (n34, truss nucleus.Instance){
				"truss then n34": func(h *graph.Graph) (nucleus.Instance, nucleus.Instance) {
					truss := build(h, nucleus.FamilyTruss, -1, threads)
					return build(h, nucleus.FamilyN34, -1, threads), truss
				},
				"n34 then truss": func(h *graph.Graph) (nucleus.Instance, nucleus.Instance) {
					n34 := build(h, nucleus.FamilyN34, -1, threads)
					return n34, build(h, nucleus.FamilyTruss, -1, threads)
				},
				"n34 alone": func(h *graph.Graph) (nucleus.Instance, nucleus.Instance) {
					return build(h, nucleus.FamilyN34, -1, threads), nil
				},
				"truss with no room for the index then n34": func(h *graph.Graph) (nucleus.Instance, nucleus.Instance) {
					truss := build(h, nucleus.FamilyTruss, trussBytes+indexBytes-1, threads)
					return build(h, nucleus.FamilyN34, -1, threads), truss
				},
				"refused truss then n34": func(h *graph.Graph) (nucleus.Instance, nucleus.Instance) {
					if _, ok := build(h, nucleus.FamilyTruss, trussBytes-1, threads).(*nucleus.Flat); ok {
						t.Fatalf("%s threads %d: a truss index of %d bytes built within %d", name, threads, trussBytes, trussBytes-1)
					}
					return build(h, nucleus.FamilyN34, -1, threads), nil
				},
			} {
				what := fmt.Sprintf("%s threads %d, %s", name, threads, order)
				n34, truss := run(copyOf(g))
				f, ok := n34.(*nucleus.Flat)
				if !ok {
					t.Fatalf("%s: (3,4) built %T, want *Flat", what, n34)
				}
				rows, wantRows := f.Rows(), want.Rows()
				if f.NumCells() != want.NumCells() || !slices.Equal(f.Degrees(), want.Degrees()) ||
					!slices.Equal(rows.Offs, wantRows.Offs) || !slices.Equal(rows.Mem, wantRows.Mem) {
					t.Fatalf("%s: (3,4) cells, degrees or rows differ from the cold build", what)
				}
				for c := range int32(f.NumCells()) {
					if !slices.Equal(f.CellVertices(c, nil), want.CellVertices(c, nil)) {
						t.Fatalf("%s: cell %d has vertices %v, the cold build %v", what, c, f.CellVertices(c, nil), want.CellVertices(c, nil))
					}
				}
				if !slices.Equal(peel.Run(f).Kappa, wantKappa) || !slices.Equal(localhi.And(f, localhi.Options{Threads: threads}).Tau, wantKappa) {
					t.Fatalf("%s: κ from peel or AND differs from the cold build's", what)
				}
				if truss != nil {
					if tf, ok := truss.(*nucleus.Flat); !ok || !slices.Equal(tf.Rows().Offs, wantTruss.Rows().Offs) || !slices.Equal(tf.Rows().Mem, wantTruss.Rows().Mem) {
						t.Fatalf("%s: the stored truss rows differ from the cold build's", what)
					}
				}
			}
		}
	}
}

// TestConcurrentTrussAndN34ShareOneIndexMemo races stored truss and (3,4)
// builds, and budget-0 (3,4) builds, on one graph: whichever publishes the
// triangle index first, every (3,4) instance sees the same cells and rows
// as a cold build, and the truss rows are the cold ones. Run under -race,
// it is the memo hand-off's check.
func TestConcurrentTrussAndN34ShareOneIndexMemo(t *testing.T) {
	g := graph.PlantedCommunities(4, 16, 0.5, 40, 3)
	want := build(copyOf(g), nucleus.FamilyN34, -1, 2).(*nucleus.Flat)
	wantTruss := build(copyOf(g), nucleus.FamilyTruss, -1, 2).(*nucleus.Flat)
	wantDeg := want.Degrees()
	for round := 0; round < 4; round++ {
		h := copyOf(g)
		var wg sync.WaitGroup
		errs := make(chan string, 12)
		for i := 0; i < 4; i++ {
			wg.Add(3)
			go func() {
				defer wg.Done()
				if f := build(h, nucleus.FamilyTruss, -1, 2).(*nucleus.Flat); !slices.Equal(f.Rows().Mem, wantTruss.Rows().Mem) {
					errs <- "truss rows differ"
				}
			}()
			go func() {
				defer wg.Done()
				if f := build(h, nucleus.FamilyN34, -1, 2).(*nucleus.Flat); !slices.Equal(f.Rows().Mem, want.Rows().Mem) || !slices.Equal(f.Degrees(), wantDeg) {
					errs <- "(3,4) rows differ"
				}
			}()
			go func() {
				defer wg.Done()
				if n := build(h, nucleus.FamilyN34, 0, 1); n.NumCells() != want.NumCells() || !slices.Equal(n.Degrees(), wantDeg) ||
					!slices.Equal(n.CellVertices(int32(n.NumCells()-1), nil), want.CellVertices(int32(n.NumCells()-1), nil)) {
					errs <- "on-the-fly (3,4) cells differ"
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("round %d: %s", round, e)
		}
	}
}
