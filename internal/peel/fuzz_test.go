package peel

import (
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
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

// FuzzPeelFrontier differentially fuzzes the parallel frontier engine
// against the sequential bucket queue: for arbitrary graphs, cell families
// and thread counts, κ and MaxKappa must match exactly, and the parallel
// Order must be a valid peeling order that is identical at every worker
// count.
func FuzzPeelFrontier(f *testing.F) {
	for _, seed := range familySeeds() {
		f.Add(seed, uint8(4), uint8(1))
	}
	f.Add([]byte{0, 1, 1, 2, 2, 0}, uint8(2), uint8(0))
	f.Add([]byte{}, uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, threads, famSel uint8) {
		g := graph.Build(-1, edgesFromBytes(data))
		var inst nucleus.Instance
		switch famSel % 4 {
		case 0:
			inst = nucleus.NewCore(g)
		case 1:
			inst = nucleus.NewTruss(g)
		case 2:
			inst = nucleus.NewFlatTruss(g, 2)
		default:
			inst = nucleus.NewN34(g)
		}
		seq := Run(inst)
		nThreads := 1 + int(threads%8)
		par := RunThreads(inst, nThreads)
		if par.MaxKappa != seq.MaxKappa {
			t.Fatalf("threads=%d: MaxKappa %d, sequential %d", nThreads, par.MaxKappa, seq.MaxKappa)
		}
		for c := range seq.Kappa {
			if par.Kappa[c] != seq.Kappa[c] {
				t.Fatalf("threads=%d: κ(%d) = %d, sequential %d", nThreads, c, par.Kappa[c], seq.Kappa[c])
			}
		}
		checkValidOrder(t, par)
		ref := RunThreads(inst, 1)
		for i := range ref.Order {
			if par.Order[i] != ref.Order[i] {
				t.Fatalf("threads=%d: order[%d] = %d, 1-worker order %d", nThreads, i, par.Order[i], ref.Order[i])
			}
		}
	})
}
