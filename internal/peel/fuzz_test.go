package peel

import (
	"fmt"
	"slices"
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
// on the other side of the stored / on-the-fly fork.
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
		return nucleus.NewFlat(g, 2, 4, 2), nil
	case 6:
		return nucleustest.NewHyper(g, 2, 3), nil
	default:
		return nucleustest.NewHyper(g, 1, 3), nil
	}
}

// FuzzPeelFrontier differentially fuzzes both peel entry points against
// the reference peel (refPeel: closures and a lazy-deletion queue, neither
// of which either engine uses): for arbitrary graphs, cell families —
// stored rows, on the fly, and the explicit hypergraph — and thread
// counts, κ and MaxKappa must match exactly, every Order must replay as a
// valid peeling order, RunThreads' must be identical at every worker
// count, and the two kinds of one family must agree on κ.
func FuzzPeelFrontier(f *testing.F) {
	for _, seed := range familySeeds() {
		f.Add(seed, uint8(4), uint8(1))
	}
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(2), uint8(0))
	f.Add([]byte{}, uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, threads, famSel uint8) {
		g := graph.Build(-1, edgesFromBytes(data))
		inst, twin := fuzzInstance(g, famSel)
		want := refPeel(inst)
		seq := Run(inst)
		checkKappa(t, "Run", inst, seq, want)
		checkValidOrder(t, inst, seq)
		nThreads := 1 + int(threads%8)
		par := RunThreads(inst, nThreads)
		checkKappa(t, fmt.Sprintf("threads=%d", nThreads), inst, par, want)
		checkValidOrder(t, inst, par)
		if one := RunThreads(inst, 1); !slices.Equal(par.Order, one.Order) {
			t.Fatalf("threads=%d: order differs from the 1-worker order", nThreads)
		}
		if twin != nil {
			checkKappa(t, "the family's other kind, Run", inst, Run(twin), want)
			checkKappa(t, "the family's other kind, RunThreads", inst, RunThreads(twin, nThreads), want)
		}
	})
}
