package nucleus

import (
	"fmt"
	"math"

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

func (f Family) String() string {
	switch f {
	case FamilyCore:
		return "core"
	case FamilyTruss:
		return "truss"
	case FamilyN34:
		return "n34"
	}
	return fmt.Sprintf("Family(%d)", int(f))
}

// ParseFamily maps the normalized decomposition names used across the
// library ("core", "truss", "n34") to a Family.
func ParseFamily(s string) (Family, error) {
	switch s {
	case "core":
		return FamilyCore, nil
	case "truss":
		return FamilyTruss, nil
	case "n34":
		return FamilyN34, nil
	}
	return 0, fmt.Errorf("nucleus: unknown family %q (want core, truss or n34)", s)
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
// s-clique incidence index when its estimated size fits the memory budget
// and falling back to the on-the-fly instance otherwise (the paper's §5
// stance: never let the index OOM what the intersection-based instance
// could still serve). memBudget is in bytes: 0 never indexes, a negative
// budget is unlimited. The s-degree counting pass — needed by flat and
// on-the-fly instances alike — runs on the given thread count either way,
// over the orientation (truss) or triangle index ((3,4)) the flat build
// then enumerates again, and its counts are the exact index-size estimate:
// the budget is checked before anything proportional to the s-cliques is
// allocated, and deciding costs nothing beyond what construction pays.
func Build(g *graph.Graph, fam Family, memBudget int64, threads int) (Instance, BuildReport) {
	rep := BuildReport{Family: fam}
	switch fam {
	case FamilyCore:
		rep.Reason = "core needs no index: CSR adjacency already is the (1,2) incidence"
		return NewCore(g), rep
	case FamilyTruss:
		o := cliques.OrientEdges(g, threads)
		t := &Truss{G: g, deg: o.CountPerEdge(threads)}
		if g.M() > math.MaxInt32 {
			rep.Reason = "graph exceeds int32 edge cells"
			return t, rep
		}
		rep.EstimatedBytes = cliques.EdgeIncidenceBytes(g.M(), sumInt32(t.deg))
		if !rep.fits(memBudget) {
			return t, rep
		}
		f := flatTruss(t, o, threads)
		rep.Indexed, rep.IndexBytes = true, f.IndexBytes()
		return f, rep
	case FamilyN34:
		n := newN34(g, threads)
		rep.EstimatedBytes = cliques.K4IncidenceBytes(int64(n.NumCells()), sumInt32(n.deg))
		if !rep.fits(memBudget) {
			return n, rep
		}
		f := flatN34(n, threads)
		rep.Indexed, rep.IndexBytes = true, f.IndexBytes()
		return f, rep
	}
	panic(fmt.Sprintf("nucleus: unknown family %d", int(fam)))
}

// fits reports whether the estimated index size is within the budget,
// recording the reason when it is not.
func (rep *BuildReport) fits(budget int64) bool {
	switch {
	case budget < 0 || (budget > 0 && rep.EstimatedBytes <= budget):
		return true
	case budget == 0:
		rep.Reason = "indexing disabled (budget 0)"
	default:
		rep.Reason = fmt.Sprintf("estimated index size %d exceeds budget %d", rep.EstimatedBytes, budget)
	}
	return false
}

func sumInt32(vals []int32) int64 {
	var s int64
	for _, v := range vals {
		s += int64(v)
	}
	return s
}
