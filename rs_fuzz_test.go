package nucleus

import (
	"fmt"
	"sort"
	"testing"

	"nucleus/internal/graph"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// rsPairs are the (r,s) pairs the fuzzer cycles through: the three
// first-class decompositions plus three genuinely generic pairs that
// exercise the enumerating Flat builder.
var rsPairs = [][2]int{{1, 2}, {2, 3}, {3, 4}, {1, 3}, {2, 4}, {1, 4}}

// fuzzGraph decodes fuzz bytes into a small graph. Vertex ids are masked
// to 5 bits and the edge count capped so clique enumeration stays cheap
// even for adversarial inputs ((r,s) up to (3,4) on ≤32 vertices).
func fuzzGraph(data []byte) *Graph {
	const maxEdges = 96
	var edges [][2]uint32
	for i := 0; i+1 < len(data) && len(edges) < maxEdges; i += 2 {
		edges = append(edges, [2]uint32{uint32(data[i] % 32), uint32(data[i+1] % 32)})
	}
	return graph.Build(-1, edges)
}

// kappaByVertexKey maps each cell's sorted vertex set to its κ value,
// making decompositions comparable across engines that number cells
// differently (clique enumeration order vs canonical edge or
// triangle ids).
func kappaByVertexKey(t *testing.T, inst inucleus.Instance, kappa []int32) map[string]int32 {
	t.Helper()
	out := make(map[string]int32, len(kappa))
	var buf []uint32
	for c := range kappa {
		buf = inst.CellVertices(int32(c), buf[:0])
		vs := append([]uint32(nil), buf...)
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		key := fmt.Sprint(vs)
		if prev, dup := out[key]; dup && prev != kappa[c] {
			t.Fatalf("cell %s appears twice with κ %d and %d", key, prev, kappa[c])
		}
		out[key] = kappa[c]
	}
	return out
}

// FuzzDecomposeRS differentially fuzzes the public generic-(r,s) entry
// point: for arbitrary small graphs, (r,s) pairs and thread counts, the
// parallel Peel path, the converged AND path, and an independent oracle —
// sequential bucket peeling over the materialized hypergraph — must agree
// on κ for every cell (matched by vertex set, so the comparison is robust
// to cell-id remapping between engines).
func FuzzDecomposeRS(f *testing.F) {
	for _, seed := range familySeedBytes() {
		f.Add(seed, uint8(1), uint8(3))
	}
	f.Add([]byte{0, 1, 1, 2, 2, 0, 0, 2}, uint8(4), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rsSel, threads uint8) {
		g := fuzzGraph(data)
		pair := rsPairs[int(rsSel)%len(rsPairs)]
		r, s := pair[0], pair[1]
		nThreads := 1 + int(threads%8)

		pr := DecomposeRS(g, r, s, Options{Algorithm: Peel, Threads: nThreads})
		ar := DecomposeRS(g, r, s, Options{Algorithm: AND, Threads: nThreads})
		if !ar.Converged {
			t.Fatalf("(%d,%d): AND did not converge", r, s)
		}
		if len(pr.Kappa) != len(ar.Kappa) {
			t.Fatalf("(%d,%d): Peel has %d cells, AND %d", r, s, len(pr.Kappa), len(ar.Kappa))
		}
		for c := range pr.Kappa {
			if pr.Kappa[c] != ar.Kappa[c] {
				t.Fatalf("(%d,%d) threads=%d: κ(%s) = %d via Peel, %d via AND",
					r, s, nThreads, pr.CellLabel(int32(c)), pr.Kappa[c], ar.Kappa[c])
			}
		}

		// Independent oracle: sequential peel over the materialized
		// hypergraph, compared by vertex-set key.
		oracle := nucleustest.NewHyper(g, r, s)
		or := peel.Run(oracle)
		want := kappaByVertexKey(t, oracle, or.Kappa)
		got := kappaByVertexKey(t, pr.inst, pr.Kappa)
		if len(got) != len(want) {
			t.Fatalf("(%d,%d): %d cells, oracle has %d", r, s, len(got), len(want))
		}
		for key, k := range want {
			if gk, ok := got[key]; !ok {
				t.Fatalf("(%d,%d): oracle cell %s missing", r, s, key)
			} else if gk != k {
				t.Fatalf("(%d,%d) threads=%d: κ(%s) = %d, oracle %d", r, s, nThreads, key, gk, k)
			}
		}
		if pr.MaxKappa != or.MaxKappa {
			t.Fatalf("(%d,%d): MaxKappa %d, oracle %d", r, s, pr.MaxKappa, or.MaxKappa)
		}
	})
}

// familySeedBytes serializes small instances of the generator families as
// byte-pair edge lists for the fuzz corpus.
func familySeedBytes() [][]byte {
	gs := []*graph.Graph{
		graph.Complete(7),
		graph.CliqueChain(3, 4),
		graph.GnM(28, 70, 1),
		graph.BarabasiAlbert(30, 3, 2),
		graph.WattsStrogatz(30, 4, 0.2, 4),
		graph.PlantedCommunities(3, 8, 0.5, 10, 5),
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
