package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"

	"nucleus"
	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	"nucleus/internal/metrics"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/query"
)

// subSeed derives the seed of round r's input from the run's seed. Every
// round of the two library workloads decomposes a graph of its own: AND's
// sweep count, and with it the op's time, moves ±10 % from one random graph
// to the next, so a run on a single graph would report that graph's luck
// and ten seeds would spread by 18 %. Over a hundred graphs the run's p50 is
// the family's median.
func subSeed(seed int64, r int) int64 { return seed*1_000_003 + int64(r) }

// edgeList returns g's edges in a seeded random order and orientation, the
// way an edge list arrives from a file.
func edgeList(g *graph.Graph, seed int64) [][2]uint32 {
	edges := g.Edges()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for i := range edges {
		if rng.Intn(2) == 0 {
			edges[i][0], edges[i][1] = edges[i][1], edges[i][0]
		}
	}
	return edges
}

func edgeListText(edges [][2]uint32) []byte {
	buf := make([]byte, 0, 14*len(edges))
	for _, e := range edges {
		buf = strconv.AppendUint(buf, uint64(e[0]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e[1]), 10)
		buf = append(buf, '\n')
	}
	return buf
}

func sameKappa(a, b []int32) error {
	if len(a) != len(b) {
		return fmt.Errorf("κ arrays differ in length: %d against %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("κ differs at cell %d: %d against %d", i, a[i], b[i])
		}
	}
	return nil
}

// exactAgainstPeel is the library oracle: the local algorithm converged and
// its κ is bit-identical to the peeling baseline's.
func exactAgainstPeel(local *nucleus.Result, peeled []int32) error {
	if !local.Converged {
		return errors.New("local run did not report Converged")
	}
	return sameKappa(local.Kappa, peeled)
}

// parseCheck serialises round 0's edge list, parses it back through the
// public reader and checks nothing was lost. It is part of set-up.
func parseCheck(edges [][2]uint32, want *graph.Graph) ([]byte, error) {
	text := edgeListText(edges)
	parsed, err := nucleus.ReadEdgeList(bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("ReadEdgeList: %w", err)
	}
	if parsed.M() != want.M() {
		return nil, fmt.Errorf("ReadEdgeList kept %d of %d edges", parsed.M(), want.M())
	}
	return text, nil
}

// ---------------------------------------------------------------------------
// lib_core: edge list → exact core numbers, one caller, library only.

type libCore struct {
	cfg  config
	text []byte // round 0's edge list, parsed once per traced round
}

func (w *libCore) clients() int { return 1 }
func (w *libCore) tearDown()    {}

func (w *libCore) input(r int) (*graph.Graph, [][2]uint32) {
	s := subSeed(w.cfg.seed, r)
	g := graph.RMAT(w.cfg.size.coreScale, 8, 0.57, 0.19, 0.19, s)
	return g, edgeList(g, s)
}

func (w *libCore) setUp(warm *recorder) error {
	g, edges := w.input(0)
	text, err := parseCheck(edges, g)
	if err != nil {
		return err
	}
	w.text = text
	for r := 0; r < w.cfg.size.warmRounds("lib_core"); r++ {
		w.round(0, r, warm)
	}
	return nil
}

func (w *libCore) round(_, r int, rec *recorder) {
	p := w.cfg.threads
	gen, edges := w.input(r)
	n := gen.N()

	var g *nucleus.Graph
	var and *nucleus.Result
	runtime.GC()
	rec.do(slotMain, "lib_core/main", func() error {
		g = nucleus.BuildGraphThreads(n, edges, p)
		and = nucleus.Decompose(g, nucleus.KCore, nucleus.Options{Algorithm: nucleus.AND, Threads: p})
		return nil
	})
	mainOp := rec.cur

	var peeled []int32
	runtime.GC()
	rec.do(slotAlt, "lib_core/alt", func() error {
		peeled = nucleus.Decompose(g, nucleus.KCore, nucleus.Options{Algorithm: nucleus.Peel, Threads: p}).Kappa
		return nil
	})
	altOp := rec.cur
	if w.cfg.sabotage {
		and.Kappa[0]++
	}
	rec.verify(exactAgainstPeel(and, peeled))

	var forest *nucleus.Forest
	runtime.GC()
	rec.do(slotAux, "lib_core/aux", func() error {
		forest = nucleus.BuildHierarchy(g, nucleus.KCore, peeled)
		return nil
	})
	auxOp := rec.cur
	if forest.NumNodes() == 0 {
		rec.verify(errors.New("core hierarchy is empty"))
	}

	if rec.tr == nil {
		return
	}
	// The ops above are the public calls, opaque to the benchmark. The same
	// work again, layer by layer, on the same input and after a GC like the
	// op's own; each replay hangs under the op it repeats.
	inst := inucleus.NewCore(g)
	var again *localhi.Result
	replayQuiet(rec, mainOp, "graph.build_ms", func() { graph.BuildThreads(n, edges, p) })
	replayQuiet(rec, mainOp, "localhi.and_core_ms", func() { again = localAnd(inst, p) })
	rec.verify(sameKappa(again.Tau, peeled))
	replayQuiet(rec, altOp, "peel.core_ms", func() { peel.RunThreads(inst, p) })
	replayQuiet(rec, auxOp, "hierarchy.core_ms", func() { hierarchy.Build(inst, peeled) })

	// Layers the slotted ops do not call, on the same graph.
	runtime.GC()
	rec.probe("graph.parse_ms", func() {
		if _, err := graph.ReadEdgeList(bytes.NewReader(w.text)); err != nil {
			panic(err) // parsed cleanly in set-up
		}
	})
	var snd *localhi.Result
	runtime.GC()
	rec.probe("localhi.snd_core_ms", func() { snd = localhi.Snd(inst, localhi.Options{Threads: p}) })
	rec.count("localhi.snd_core_sweeps", float64(snd.Sweeps))
	runtime.GC()
	rec.probe("localhi.and_core_t1_ms", func() { localAnd(inst, 1) })
	runtime.GC()
	rec.probe("peel.core_t1_ms", func() { peel.RunThreads(inst, 1) })
	queries := make([]uint32, 64)
	rng := rand.New(rand.NewSource(subSeed(w.cfg.seed, r)))
	for i := range queries {
		queries[i] = uint32(rng.Intn(n))
	}
	rec.probe("query.core_estimate_ms", func() { query.CoreNumbers(g, queries, 2, 0) })
}

// replayQuiet repeats one layer's share of a library op under that op's
// root span, after a collection like the one the op itself started from.
func replayQuiet(rec *recorder, op int, name string, fn func()) {
	runtime.GC()
	rec.spanUnder(op, name, true, fn)
}

// localAnd is the layer call under the library's AND decompositions, with
// the option nucleus.Decompose sets. If the library stops routing there,
// the op's residual says so: the op is the public call, this only a replay.
func localAnd(inst inucleus.Instance, threads int) *localhi.Result {
	return localhi.And(inst, localhi.Options{Threads: threads, Notification: true})
}

func (w *libCore) check(*recorder) error { return nil } // every round checked itself

func (w *libCore) finishTrace(*recorder, map[string]float64) error { return nil }

// ---------------------------------------------------------------------------
// lib_nucleus: truss beside (3,4) on a triangle-rich graph, library only.

type libNucleus struct {
	cfg config
}

func (w *libNucleus) clients() int { return 1 }
func (w *libNucleus) tearDown()    {}

func (w *libNucleus) input(r int) *graph.Graph {
	c := w.cfg.size.nucComms
	return graph.PlantedCommunities(c, 80, 0.3, 100*c, subSeed(w.cfg.seed, r))
}

func (w *libNucleus) setUp(warm *recorder) error {
	g := w.input(0)
	if _, err := parseCheck(edgeList(g, w.cfg.seed), g); err != nil {
		return err
	}
	for r := 0; r < w.cfg.size.warmRounds("lib_nucleus"); r++ {
		w.round(0, r, warm)
	}
	return nil
}

func (w *libNucleus) round(_, r int, rec *recorder) {
	p := w.cfg.threads
	g := w.input(r)
	opts := nucleus.Options{Algorithm: nucleus.AND, Threads: p}

	var truss, n34 *nucleus.Result
	runtime.GC()
	rec.do(slotMain, "lib_nucleus/main", func() error {
		truss = nucleus.DecomposeRS(g, 2, 3, opts)
		return nil
	})
	mainOp := rec.cur
	// The oracle peels the on-the-fly instance, so it also checks that κ
	// does not depend on the instance kind.
	peeledTruss := nucleus.Decompose(g, nucleus.KTruss, nucleus.Options{Algorithm: nucleus.Peel, Threads: p}).Kappa
	if w.cfg.sabotage {
		truss.Kappa[0]++
	}
	rec.verify(exactAgainstPeel(truss, peeledTruss))

	runtime.GC()
	rec.do(slotAlt, "lib_nucleus/alt", func() error {
		n34 = nucleus.DecomposeRS(g, 3, 4, opts)
		return nil
	})
	altOp := rec.cur
	peeledN34 := nucleus.Decompose(g, nucleus.Nucleus34, nucleus.Options{Algorithm: nucleus.Peel, Threads: p}).Kappa
	rec.verify(exactAgainstPeel(n34, peeledN34))

	var forest *nucleus.Forest
	runtime.GC()
	rec.do(slotAux, "lib_nucleus/aux", func() error {
		forest = nucleus.BuildHierarchy(g, nucleus.KTruss, peeledTruss)
		return nil
	})
	auxOp := rec.cur
	if forest.NumNodes() == 0 {
		rec.verify(errors.New("truss hierarchy is empty"))
	}

	if rec.tr == nil {
		return
	}
	// DecomposeRS's route for a first-class family, layer by layer (see
	// libCore.round): build the flat incidence index, run AND on it.
	var trussInst, n34Inst inucleus.Instance
	var trussRep inucleus.BuildReport
	var again *localhi.Result
	replayQuiet(rec, mainOp, "nucleus.build_truss_ms", func() { trussInst, trussRep = inucleus.Build(g, inucleus.FamilyTruss, -1, p) })
	replayQuiet(rec, mainOp, "localhi.and_truss_ms", func() { again = localAnd(trussInst, p) })
	rec.verify(sameKappa(again.Tau, peeledTruss))
	replayQuiet(rec, altOp, "nucleus.build_n34_ms", func() { n34Inst, _ = inucleus.Build(g, inucleus.FamilyN34, -1, p) })
	replayQuiet(rec, altOp, "localhi.and_n34_ms", func() { again = localAnd(n34Inst, p) })
	rec.verify(sameKappa(again.Tau, peeledN34))
	replayQuiet(rec, auxOp, "hierarchy.truss_ms", func() { hierarchy.Build(inucleus.NewTruss(g), peeledTruss) })

	rec.count("hierarchy.truss_nodes", float64(forest.NumNodes()))
	rec.count("nucleus.index_bytes", float64(trussRep.IndexBytes))
	rec.count("cliques.triangles", float64(cliques.Count(g)))
	rec.count("cliques.k4", float64(cliques.CountK4(g)))

	// The clique substrate on its own, then the engines the ops leave out.
	runtime.GC()
	rec.probe("cliques.tri_enum_ms", func() { cliques.KCliquesFlat(g, 3, p) })
	var ti *cliques.TriangleIndex
	runtime.GC()
	rec.probe("cliques.tri_index_ms", func() { ti = cliques.BuildTriangleIndexThreads(g, p) })
	deg := ti.K4DegreePerTriangleParallel(g, p)
	runtime.GC()
	rec.probe("cliques.k4_incidence_ms", func() { cliques.BuildK4Incidence(g, ti, deg, p) })

	var snd *localhi.Result
	runtime.GC()
	rec.probe("localhi.snd_truss_ms", func() { snd = localhi.Snd(trussInst, localhi.Options{Threads: p}) })
	rec.count("localhi.snd_truss_sweeps", float64(snd.Sweeps))
	rec.count("localhi.snd_truss_visits", float64(snd.WorkVisits))
	snd3 := localhi.Snd(trussInst, localhi.Options{Threads: p, MaxSweeps: 3})
	rec.count("localhi.snd3_kendall_truss", metrics.KendallTauB(snd3.Tau, peeledTruss))
	runtime.GC()
	rec.probe("localhi.and_truss_t1_ms", func() { localAnd(trussInst, 1) })
	runtime.GC()
	rec.probe("peel.truss_ms", func() { peel.RunThreads(trussInst, p) })
	runtime.GC()
	rec.probe("peel.n34_ms", func() { peel.RunThreads(n34Inst, p) })
}

func (w *libNucleus) check(*recorder) error { return nil } // every round checked itself

func (w *libNucleus) finishTrace(*recorder, map[string]float64) error { return nil }
