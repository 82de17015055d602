package nucleus

import (
	"fmt"
	"math"
	"slices"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
)

// Family identifies one of the first-class (r,s) cell families.
type Family int

// The first-class families.
const (
	FamilyCore  Family = iota // (1,2): cells are vertices
	FamilyTruss               // (2,3): cells are edges
	FamilyN34                 // (3,4): cells are triangles
)

// familyNames lists every spelling ParseFamily accepts for each family, the
// canonical name first: the name String returns, and the one the server
// reports in every body.
var familyNames = [...][]string{
	FamilyCore:  {"core", "kcore", "12"},
	FamilyTruss: {"truss", "ktruss", "23"},
	FamilyN34:   {"n34", "34", "nucleus34"},
}

func (f Family) String() string {
	if f >= 0 && int(f) < len(familyNames) {
		return familyNames[f][0]
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// RS returns the family's (r,s): cells are r-cliques, rows list s-cliques.
func (f Family) RS() (r, s int) { return int(f) + 1, int(f) + 2 }

// Spellings returns every name ParseFamily accepts for f, canonical first.
func (f Family) Spellings() []string { return append([]string(nil), familyNames[f]...) }

// ParseFamily is the one parser of decomposition names, for the server, the
// CLIs and the experiments alike: the Spellings of each family, and the
// empty string for core, the default.
func ParseFamily(s string) (Family, error) {
	if s == "" {
		return FamilyCore, nil
	}
	for f, names := range familyNames {
		if slices.Contains(names, s) {
			return Family(f), nil
		}
	}
	return 0, fmt.Errorf("unknown decomposition %q (want core, truss or n34)", s)
}

// BuildReport describes what Build constructed.
type BuildReport struct {
	Family Family
	// Indexed is true when a flat incidence index was materialized.
	Indexed bool
	// EstimatedBytes is the pre-build estimate of the flat index size that
	// was compared against the budget (0 for core, which needs no index:
	// its s-clique structure is the CSR adjacency itself).
	EstimatedBytes int64
	// IndexBytes is the memory actually held by the built index arrays
	// (0 when Indexed is false).
	IndexBytes int64
	// Reason explains why no index was built; empty when Indexed.
	Reason string
}

// Build constructs the instance for a family, materializing the flat
// s-clique incidence index when its size fits the memory budget and
// falling back to the on-the-fly instance otherwise (the paper's §5
// stance: never let the index OOM what the intersection-based instance
// could still serve). memBudget is in bytes: 0 never indexes, a negative
// budget is unlimited. Each s-clique is enumerated once: the group pass
// prices what it has collected as it goes and stops once that exceeds the
// budget (cliques.EdgeIncidenceWithin, K4IncidenceWithin), so nothing
// proportional to the index is laid out over budget, and a completed pass
// counts the s-degrees off its groups. Only a rejected index pays the
// count-only pass, for the on-the-fly instance's degrees and the exact
// estimate in the report. Every pass runs on the given thread count.
func Build(g *graph.Graph, fam Family, memBudget int64, threads int) (Instance, BuildReport) {
	rep := BuildReport{Family: fam}
	switch fam {
	case FamilyCore:
		rep.Reason = "core needs no index: CSR adjacency already is the (1,2) incidence"
		return NewCore(g), rep
	case FamilyTruss:
		o := cliques.OrientEdges(g, threads)
		t := &Truss{G: g}
		if g.M() > math.MaxInt32 {
			t.deg = o.CountPerEdge(threads)
			rep.Reason = "graph exceeds int32 edge cells"
			return t, rep
		}
		if memBudget != 0 {
			if inc := cliques.EdgeIncidenceWithin(o, memBudget, threads); inc != nil {
				return rep.stored(&Flat{r: 2, s: 3, offs: inc.Offs, members: inc.Pairs, coArity: 2, deg: inc.Deg, verts: t.CellVertices})
			}
		}
		t.deg = o.CountPerEdge(threads)
		rep.reject(cliques.EdgeIncidenceBytes(g.M(), sumInt32(t.deg)), memBudget)
		return t, rep
	case FamilyN34:
		n := &N34{G: g, Idx: cliques.TriangleIndexOf(g, threads)}
		if memBudget != 0 {
			if inc := cliques.K4IncidenceWithin(n.Idx, memBudget, threads); inc != nil {
				return rep.stored(&Flat{r: 3, s: 4, offs: inc.Offs, members: inc.Triples, coArity: 3, deg: inc.Deg, verts: n.CellVertices})
			}
		}
		n.Idx = n.Idx.WithSlots(threads) // rows are discovered by triangle id
		n.deg = n.Idx.K4DegreePerTriangleParallel(g, threads)
		rep.reject(cliques.K4IncidenceBytes(int64(n.NumCells()), sumInt32(n.deg)), memBudget)
		return n, rep
	}
	panic(fmt.Sprintf("nucleus: unknown family %d", int(fam)))
}

// LibraryIndexBudget caps, in bytes, the estimated size of the s-clique
// incidence a library call stores for the truss and (3,4) families, as the
// server's default -index-mem-budget does; over it, the call runs on the
// on-the-fly instance (the paper's §5 fork). Every library entry point —
// the root package's, query's and dynamic's — builds under it through For,
// so they share one instance per graph.
const LibraryIndexBudget = 1 << 30 // 1 GiB

// instanceKey keys the instances memoized on a graph.
type instanceKey struct {
	fam    Family
	budget int64
}

// For returns g's one instance of fam under memBudget with Build's report:
// built on the first call for the pair — at that caller's threads, as
// instances are bit-identical at every thread count — and memoized on g
// (graph.Memo) while g lives. built is true only for the call that built it.
func For(g *graph.Graph, fam Family, memBudget int64, threads int) (inst Instance, rep BuildReport, built bool) {
	type memoized struct {
		inst Instance
		rep  BuildReport
	}
	m, built := graph.Memo(g, instanceKey{fam, memBudget}, func() (m memoized) {
		m.inst, m.rep = Build(g, fam, memBudget, threads)
		return m
	})
	return m.inst, m.rep, built
}

// stored reports a built index: the price of a completed group pass is
// the exact size, so the estimate is the bytes held.
func (rep BuildReport) stored(f *Flat) (Instance, BuildReport) {
	rep.Indexed, rep.IndexBytes = true, f.IndexBytes()
	rep.EstimatedBytes = rep.IndexBytes
	return f, rep
}

// reject records why no index was built: est is its exact size, from the
// count pass.
func (rep *BuildReport) reject(est, budget int64) {
	rep.EstimatedBytes = est
	if budget == 0 {
		rep.Reason = "indexing disabled (budget 0)"
	} else {
		rep.Reason = fmt.Sprintf("estimated index size %d exceeds budget %d", est, budget)
	}
}

func sumInt32(vals []int32) int64 {
	var s int64
	for _, v := range vals {
		s += int64(v)
	}
	return s
}
