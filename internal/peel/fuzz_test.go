package peel

import (
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
)

// edgesFromBytes decodes fuzz data into an edge list: consecutive byte
// pairs are endpoints, capped so adversarial inputs cannot make clique
// enumeration (or -race runs) pathological.
func edgesFromBytes(data []byte) [][2]uint32 {
	const maxEdges = 512
	var edges [][2]uint32
	for i := 0; i+1 < len(data) && len(edges) < maxEdges; i += 2 {
		edges = append(edges, [2]uint32{uint32(data[i]), uint32(data[i+1])})
	}
	return edges
}

// familySeeds encodes small instances of the generator families as fuzz
// corpus entries, so the fuzzer starts from structured graphs (cliques,
// hubs, communities) instead of only random byte soup.
func familySeeds() [][]byte {
	gs := []*graph.Graph{
		graph.Complete(8),
		graph.CliqueChain(3, 5),
		graph.GnM(60, 150, 1),
		graph.BarabasiAlbert(50, 4, 2),
		graph.RMAT(6, 4, 0.45, 0.22, 0.22, 3),
		graph.WattsStrogatz(48, 4, 0.2, 4),
		graph.PlantedCommunities(3, 10, 0.5, 12, 5),
		graph.PowerLawCluster(50, 4, 0.5, 6),
	}
	var out [][]byte
	for _, g := range gs {
		var data []byte
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(uint32(u)) {
				if v > uint32(u) {
					data = append(data, byte(u), byte(v))
				}
			}
		}
		out = append(out, data)
	}
	return out
}

// fuzzInstance decodes the fuzzer's family selector: the instance to peel
// and, where the family has both kinds under one cell numbering, its twin
// on the other side of the stored / discovered fork.
func fuzzInstance(g *graph.Graph, famSel uint8) (inst, twin nucleus.Instance) {
	switch famSel % 8 {
	case 0:
		return nucleus.NewCore(g), nucleustest.NewHyper(g, 1, 2)
	case 1:
		return nucleus.NewTruss(g), nucleus.NewFlatTruss(g, 2)
	case 2:
		return nucleus.NewFlatTruss(g, 2), nucleus.NewTruss(g)
	case 3:
		return nucleus.NewN34(g), nucleus.NewFlatN34(g, 2)
	case 4:
		return nucleus.NewFlatN34(g, 2), nucleus.NewN34(g)
	case 5:
		f := nucleus.NewFlat(g, 2, 4, 2)
		return f, nucleustest.Discovered(f)
	case 6:
		return nucleustest.NewHyper(g, 2, 3), nil
	default:
		return nucleustest.NewHyper(g, 1, 3), nil
	}
}

// FuzzPeel differentially fuzzes Run against the reference peel
// (refPeel: a lazy-deletion queue over nucleustest.Groups, which Run does
// not use): for arbitrary graphs and cell families — stored rows,
// discovered rows, and the explicit hypergraph — κ and MaxKappa must match
// exactly, the Order must replay as a valid peeling order, and the two
// kinds of one family must agree on κ.
func FuzzPeel(f *testing.F) {
	for _, seed := range familySeeds() {
		f.Add(seed, uint8(4))
	}
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(0))
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, famSel uint8) {
		g := graph.Build(-1, edgesFromBytes(data))
		inst, twin := fuzzInstance(g, famSel)
		want := refPeel(inst)
		res := Run(inst)
		checkKappa(t, "Run", inst, res, want)
		checkValidOrder(t, inst, res)
		if twin != nil {
			checkKappa(t, "the family's other kind", inst, Run(twin), want)
		}
	})
}
