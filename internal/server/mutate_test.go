package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// edgeListBody serializes g as an edge-list upload body, so tests can
// mirror an uploaded graph exactly.
func edgeListBody(g *graph.Graph) string {
	var sb strings.Builder
	for _, e := range g.Edges() {
		fmt.Fprintf(&sb, "%d %d\n", e[0], e[1])
	}
	return sb.String()
}

func TestMutateGraphBasicAndValidation(t *testing.T) {
	ts := testServer(t, Config{})
	// The 4-cycle 0-1-2-3.
	doJSON(t, "POST", ts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n2 3\n0 3\n"), nil)
	var gv graphView
	doJSON(t, "GET", ts.URL+"/graphs/g", nil, &gv)

	var mr mutateResponse
	resp := postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
		{"op": "add", "u": 0, "v": 2},    // diagonal
		{"op": "add", "u": 1, "v": 3},    // diagonal → K4
		{"op": "add", "u": 1, "v": 3},    // duplicate → ignored
		{"op": "remove", "u": 0, "v": 9}, // out of range → ignored
		{"op": "add", "u": 4, "v": 0},    // grows to 5 vertices
	}}, &mr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", resp.StatusCode)
	}
	if mr.Added != 3 || mr.Removed != 0 || mr.Ignored != 2 {
		t.Fatalf("counts: %+v", mr)
	}
	if mr.N != 5 || mr.M != 7 {
		t.Fatalf("shape: n=%d m=%d, want n=5 m=7", mr.N, mr.M)
	}
	if mr.WarmSeeded == nil {
		t.Fatal("warmSeeded must be [] (not null) when nothing was cached to seed from")
	}
	if mr.Version <= gv.Version {
		t.Fatalf("version not bumped: %d -> %d", gv.Version, mr.Version)
	}
	if mr.MaxCore != 3 {
		t.Fatalf("maxCore = %d, want 3 (K4)", mr.MaxCore)
	}

	// The registry view reflects the republished snapshot.
	doJSON(t, "GET", ts.URL+"/graphs/g", nil, &gv)
	if gv.Version != mr.Version || gv.Mutations != 1 || gv.N != 5 || gv.M != 7 {
		t.Fatalf("graph view after mutation: %+v", gv)
	}

	// Maintained point lookups: K4 members at κ=3, the pendant at κ=1.
	var cl coreLookupResponse
	if resp := doJSON(t, "GET", ts.URL+"/graphs/g/core?v=0&v=4", nil, &cl); resp.StatusCode != http.StatusOK {
		t.Fatalf("core lookup: status %d", resp.StatusCode)
	}
	if !cl.Maintained || cl.Version != mr.Version {
		t.Fatalf("core lookup meta: %+v", cl)
	}
	if len(cl.CoreNumbers) != 2 || cl.CoreNumbers[0] != 3 || cl.CoreNumbers[1] != 1 {
		t.Fatalf("core numbers: %+v", cl)
	}

	// A second batch: removals cascade the maintained κ back down.
	postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
		{"op": "remove", "u": 0, "v": 2},
		{"op": "remove", "u": 1, "v": 3},
	}}, &mr)
	if mr.Removed != 2 || mr.MaxCore != 2 {
		t.Fatalf("after removals: %+v", mr)
	}
	doJSON(t, "GET", ts.URL+"/graphs/g", nil, &gv)
	if gv.Mutations != 2 {
		t.Fatalf("mutations count: %d", gv.Mutations)
	}

	// Validation.
	if resp := postJSON(t, ts.URL+"/graphs/nope/edges", map[string]any{"edits": []map[string]any{{"op": "add", "u": 0, "v": 1}}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty edits: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{{"op": "toggle", "u": 0, "v": 1}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: status %d", resp.StatusCode)
	}
	// A mutation that would grow the graph past the vertex ceiling.
	if resp := postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{{"op": "add", "u": 0, "v": 1 << 30}}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized growth: status %d", resp.StatusCode)
	}
	// Bad lookup parameters.
	if resp := doJSON(t, "GET", ts.URL+"/graphs/g/core", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lookup without v: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/graphs/g/core?v=xyz", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric v: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/graphs/g/core?v=99", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range v: status %d", resp.StatusCode)
	}
}

// TestMutateUnknownGraphDoesNotLeakLocks: junk graph names must 404
// without inserting per-name mutation locks (they are never freed).
func TestMutateUnknownGraphDoesNotLeakLocks(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	for i := 0; i < 5; i++ {
		resp := postJSON(t, fmt.Sprintf("%s/graphs/junk%d/edges", ts.URL, i),
			map[string]any{"edits": []map[string]any{{"op": "add", "u": 0, "v": 1}}}, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("junk graph: status %d", resp.StatusCode)
		}
	}
	s.reg.mutMu.Lock()
	locks := len(s.reg.mutLocks)
	s.reg.mutMu.Unlock()
	if locks != 0 {
		t.Fatalf("mutation locks leaked for unknown graphs: %d", locks)
	}
}

// TestMutateNoOpBatchDoesNotRepublish: a fully no-op batch (e.g. an
// idempotent client retry) must not bump the version or purge cached
// results.
func TestMutateNoOpBatchDoesNotRepublish(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)
	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "n34"}, &jv)
	waitForJob(t, ts.URL, jv.ID)
	entries := s.cache.len()

	var gv graphView
	doJSON(t, "GET", ts.URL+"/graphs/g", nil, &gv)
	var mr mutateResponse
	resp := postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
		{"op": "add", "u": 0, "v": 1},    // already present
		{"op": "remove", "u": 0, "v": 9}, // out of range
		{"op": "add", "u": 2, "v": 2},    // self-loop
	}}, &mr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op batch: status %d", resp.StatusCode)
	}
	if mr.Version != gv.Version || mr.Added != 0 || mr.Removed != 0 || mr.Ignored != 3 {
		t.Fatalf("no-op batch republished: %+v (was version %d)", mr, gv.Version)
	}
	if mr.N != 5 || mr.MaxCore != 4 {
		t.Fatalf("no-op batch response: %+v", mr)
	}
	if s.cache.len() != entries {
		t.Fatalf("no-op batch purged the cache: %d -> %d entries", entries, s.cache.len())
	}
	doJSON(t, "GET", ts.URL+"/graphs/g", nil, &gv)
	if gv.Mutations != 0 {
		t.Fatalf("no-op batch counted as a mutation: %+v", gv)
	}
}

// TestMutateSelfLoopDoesNotGrow: a rejected self-loop add must not grow
// the vertex set to cover its endpoint.
func TestMutateSelfLoopDoesNotGrow(t *testing.T) {
	ts := testServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n"), nil)
	var mr mutateResponse
	postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
		{"op": "add", "u": 500000, "v": 500000}, // ignored, must not allocate
		{"op": "add", "u": 0, "v": 2},
	}}, &mr)
	if mr.N != 3 || mr.Added != 1 || mr.Ignored != 1 {
		t.Fatalf("self-loop grew the graph: %+v", mr)
	}
}

func TestCoreLookupOnUnmutatedGraph(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/k5/generate", map[string]any{"generator": "complete", "n": 5}, nil)
	var cl coreLookupResponse
	doJSON(t, "GET", ts.URL+"/graphs/k5/core?v=0&v=3", nil, &cl)
	if cl.Maintained {
		t.Fatal("never-mutated graph must not claim a maintained κ array")
	}
	if len(cl.CoreNumbers) != 2 || cl.CoreNumbers[0] != 4 || cl.CoreNumbers[1] != 4 {
		t.Fatalf("K5 core numbers: %+v", cl)
	}
}

// TestMutationWarmStartE2E is the acceptance flow: upload → decompose →
// mutate → re-decompose. The re-decomposition must serve κ identical to a
// cold peel of the edited graph, in strictly fewer sweeps than a cold
// local run of the same edited graph.
func TestMutationWarmStartE2E(t *testing.T) {
	ts := testServer(t, Config{Workers: 2})
	g := graph.PowerLawCluster(2000, 5, 0.5, 5)
	doJSON(t, "POST", ts.URL+"/graphs/warm", strings.NewReader(edgeListBody(g)), nil)

	// Cold decompositions populate the cache (and give the warm seeder its
	// old-version κ).
	var coreJob, trussJob jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "warm", "decomposition": "core", "algorithm": "and"}, &coreJob)
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "warm", "decomposition": "truss", "algorithm": "and"}, &trussJob)
	coldCore := waitForJob(t, ts.URL, coreJob.ID)
	coldTruss := waitForJob(t, ts.URL, trussJob.ID)
	if !coldCore.Converged || !coldTruss.Converged {
		t.Fatalf("cold jobs: %+v %+v", coldCore, coldTruss)
	}

	// Mutate: a small batch of inserts and one removal.
	edits := []graph.EdgeEdit{
		{Add: true, U: 0, V: 999},
		{Add: true, U: 1, V: 1500},
		{Add: true, U: 2, V: 700},
		{Add: true, U: 3, V: 1999},
		{U: g.Edges()[0][0], V: g.Edges()[0][1]},
	}
	ops := make([]map[string]any, len(edits))
	for i, ed := range edits {
		op := "remove"
		if ed.Add {
			op = "add"
		}
		ops[i] = map[string]any{"op": op, "u": ed.U, "v": ed.V}
	}
	mirror := graph.ApplyEdits(g, 0, edits)
	var mr mutateResponse
	if resp := postJSON(t, ts.URL+"/graphs/warm/edges", map[string]any{"edits": ops}, &mr); resp.StatusCode != http.StatusOK {
		t.Fatalf("mutate: status %d", resp.StatusCode)
	}
	if mr.Added != 4 || mr.Removed != 1 {
		t.Fatalf("mutate counts: %+v", mr)
	}
	if len(mr.WarmSeeded) != 2 || mr.WarmSeeded[0] != "core" || mr.WarmSeeded[1] != "truss" {
		t.Fatalf("warmSeeded: %v", mr.WarmSeeded)
	}

	// Re-decompose: served from the warm-seeded cache, converged, and in
	// strictly fewer sweeps than the cold run on the OLD graph...
	var warmJob jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "warm", "decomposition": "core", "algorithm": "and"}, &warmJob)
	if !warmJob.Cached || warmJob.State != JobDone || !warmJob.Converged {
		t.Fatalf("re-decompose not served warm: %+v", warmJob)
	}
	if warmJob.Sweeps >= coldCore.Sweeps {
		t.Fatalf("warm run not faster: %d vs %d cold sweeps", warmJob.Sweeps, coldCore.Sweeps)
	}
	// ...and than a cold local run of the SAME edited graph.
	doJSON(t, "POST", ts.URL+"/graphs/cold", strings.NewReader(edgeListBody(mirror)), nil)
	var coldNewJob jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "cold", "decomposition": "core", "algorithm": "and"}, &coldNewJob)
	coldNew := waitForJob(t, ts.URL, coldNewJob.ID)
	if warmJob.Sweeps >= coldNew.Sweeps {
		t.Fatalf("warm run not faster than cold on the edited graph: %d vs %d sweeps", warmJob.Sweeps, coldNew.Sweeps)
	}

	// κ identical to cold peeling of the edited graph.
	var res jobResultResponse
	doJSON(t, "GET", ts.URL+"/jobs/"+warmJob.ID+"/result?kappa=true", nil, &res)
	wantCore := peel.Run(nucleus.NewCore(mirror)).Kappa
	if len(res.Kappa) != len(wantCore) {
		t.Fatalf("core cells: %d vs %d", len(res.Kappa), len(wantCore))
	}
	for v := range wantCore {
		if res.Kappa[v] != wantCore[v] {
			t.Fatalf("core κ(%d) = %d, want %d", v, res.Kappa[v], wantCore[v])
		}
	}

	// Truss was warm-seeded too, and matches cold peeling.
	var warmTruss jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "warm", "decomposition": "truss", "algorithm": "and"}, &warmTruss)
	if !warmTruss.Cached || !warmTruss.Converged {
		t.Fatalf("truss not served warm: %+v", warmTruss)
	}
	doJSON(t, "GET", ts.URL+"/jobs/"+warmTruss.ID+"/result?kappa=true", nil, &res)
	wantTruss := peel.Run(nucleus.NewTruss(mirror)).Kappa
	if len(res.Kappa) != len(wantTruss) {
		t.Fatalf("truss cells: %d vs %d", len(res.Kappa), len(wantTruss))
	}
	for e := range wantTruss {
		if res.Kappa[e] != wantTruss[e] {
			t.Fatalf("truss κ(%d) = %d, want %d", e, res.Kappa[e], wantTruss[e])
		}
	}

	// Stats: one batch, two warm runs, measurable sweep savings, and the
	// accounting invariant.
	st := getStats(t, ts.URL)
	if st.Mutations.Batches.Load() != 1 || st.Mutations.Applied.Load() != 5 {
		t.Fatalf("mutation stats: %+v", jsonString(&st.Mutations))
	}
	if st.Mutations.WarmRuns.Load() != 2 {
		t.Fatalf("warm runs: %+v", jsonString(&st.Mutations))
	}
	if st.Mutations.SweepsSaved.Load() <= 0 {
		t.Fatalf("no sweep savings recorded: %+v", jsonString(&st.Mutations))
	}
	if st.Cache.Hits.Load()+st.Cache.Misses.Load() != st.Cache.Lookups {
		t.Fatalf("cache accounting: %+v", jsonString(&st.Cache))
	}
}

// randomBatch draws one edit batch against cur, the test-side mirror of the
// server graph: adds (vertex id n grows the graph by one), removes of
// present edges, and every no-op kind — duplicate adds, removes of absent
// edges and of out-of-range vertices, self-loops (one past the end must not
// grow the graph) — sometimes with an explicit growTo; noopOnly draws from
// the no-op kinds alone. It returns the request body and the same edits in
// graph.ApplyEdits form.
func randomBatch(rng *rand.Rand, cur *graph.Graph, noopOnly bool) (mutateRequest, []graph.EdgeEdit) {
	n := cur.N()
	var req mutateRequest
	if !noopOnly && rng.Intn(4) == 0 {
		req.GrowTo = n + 1 + rng.Intn(3)
	}
	var edits []graph.EdgeEdit
	emit := func(add bool, u, v uint32) {
		op := "remove"
		if add {
			op = "add"
		}
		req.Edits = append(req.Edits, edgeOp{Op: op, U: u, V: v})
		edits = append(edits, graph.EdgeEdit{Add: add, U: u, V: v})
	}
	for i, numOps := 0, 4+rng.Intn(8); i < numOps; i++ {
		kind := rng.Intn(10)
		if noopOnly {
			kind = 6 + rng.Intn(4)
		}
		if cur.M() == 0 && kind >= 4 && kind <= 6 {
			kind = 7 + rng.Intn(3) // no edge to remove or duplicate
		}
		switch {
		case kind < 4: // add, possibly growing by one
			emit(true, uint32(rng.Intn(n+1)), uint32(rng.Intn(n)))
		case kind < 6: // remove a present edge
			e := cur.Edges()[rng.Int63n(cur.M())]
			emit(false, e[0], e[1])
		case kind == 6: // duplicate add
			e := cur.Edges()[rng.Int63n(cur.M())]
			emit(true, e[1], e[0])
		case kind == 7: // self-loop, in range or one past the end
			u := uint32(rng.Intn(n + 2))
			emit(true, u, u)
		case kind == 8: // remove naming a vertex that does not exist
			emit(false, uint32(rng.Intn(n)), uint32(n+5+rng.Intn(3)))
		default: // remove an absent edge
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			for cur.HasEdge(u, v) {
				u, v = uint32(rng.Intn(n)), uint32(rng.Intn(n))
			}
			emit(false, u, v)
		}
	}
	return req, edits
}

// TestMutationPathMatchesColdPeelProperty drives random batches (see
// randomBatch) through the mutation endpoint and checks, after every batch,
// that the maintained core numbers and the warm-started truss numbers
// exactly match a cold peel of the independently rebuilt static graph.
func TestMutationPathMatchesColdPeelProperty(t *testing.T) {
	ts := testServer(t, Config{Workers: 2, CacheSize: 64})
	rng := rand.New(rand.NewSource(1234))
	cur := graph.GnM(50, 140, 7) // test-side mirror of the server graph
	doJSON(t, "POST", ts.URL+"/graphs/rnd", strings.NewReader(edgeListBody(cur)), nil)

	mutated := false
	for batch := 0; batch < 12; batch++ {
		// Keep the current version's core/truss results cached so the
		// mutation warm-seeds both (first round computes, later rounds are
		// the previous round's warm seeds).
		for _, dec := range []string{"core", "truss"} {
			var jv jobView
			postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "rnd", "decomposition": dec, "algorithm": "and"}, &jv)
			if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
				t.Fatalf("batch %d %s job: %+v", batch, dec, v)
			}
		}

		// Every fourth batch, the very first included, is made of no-ops.
		req, edits := randomBatch(rng, cur, batch%4 == 0)
		next := graph.ApplyEdits(cur, req.GrowTo, edits)
		changed := next.N() != cur.N() || !reflect.DeepEqual(next.Edges(), cur.Edges())
		if changed && batch%4 == 0 {
			t.Fatalf("batch %d: a no-op batch changed the mirror", batch)
		}
		cur = next

		var mr mutateResponse
		if resp := postJSON(t, ts.URL+"/graphs/rnd/edges", req, &mr); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", batch, resp.StatusCode)
		}
		// A batch that changed the graph republishes and re-derives both
		// cached decompositions; a fully no-op one does neither.
		wantSeeded := 0
		if changed {
			wantSeeded = 2
		}
		if len(mr.WarmSeeded) != wantSeeded {
			t.Fatalf("batch %d (changed=%v): warmSeeded %v", batch, changed, mr.WarmSeeded)
		}
		if mr.N != cur.N() || mr.M != cur.M() {
			t.Fatalf("batch %d: server (%d,%d) vs mirror (%d,%d)", batch, mr.N, mr.M, cur.N(), cur.M())
		}
		if mutated = mutated || changed; !mutated {
			continue // a never-mutated lineage keeps no maintained κ to check
		}

		// Maintained core numbers for every vertex == cold peel.
		wantCore := peel.Run(nucleus.NewCore(cur)).Kappa
		var sb strings.Builder
		for v := 0; v < cur.N(); v++ {
			if v > 0 {
				sb.WriteByte('&')
			}
			fmt.Fprintf(&sb, "v=%d", v)
		}
		var cl coreLookupResponse
		doJSON(t, "GET", ts.URL+"/graphs/rnd/core?"+sb.String(), nil, &cl)
		if !cl.Maintained || len(cl.CoreNumbers) != cur.N() {
			t.Fatalf("batch %d: lookup %+v", batch, cl)
		}
		for v, want := range wantCore {
			if cl.CoreNumbers[v] != want {
				t.Fatalf("batch %d: maintained κ(%d) = %d, want %d", batch, v, cl.CoreNumbers[v], want)
			}
		}

		// Warm-started truss numbers == cold peel on the rebuilt graph.
		var tj jobView
		postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "rnd", "decomposition": "truss", "algorithm": "and"}, &tj)
		if !tj.Cached || tj.State != JobDone {
			t.Fatalf("batch %d: truss not warm-seeded: %+v", batch, tj)
		}
		var res jobResultResponse
		doJSON(t, "GET", ts.URL+"/jobs/"+tj.ID+"/result?kappa=true", nil, &res)
		wantTruss := peel.Run(nucleus.NewTruss(cur)).Kappa
		if len(res.Kappa) != len(wantTruss) {
			t.Fatalf("batch %d: truss cells %d vs %d", batch, len(res.Kappa), len(wantTruss))
		}
		for e, want := range wantTruss {
			if res.Kappa[e] != want {
				t.Fatalf("batch %d: warm truss κ(%d) = %d, want %d", batch, e, res.Kappa[e], want)
			}
		}
	}
}

// TestMutationKeepsOldVersionConsistent: a decomposition racing a mutation
// must be served against the version it was submitted for, and its result
// must not be cached under the new version.
func TestMutationIsolatesInFlightVersion(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 6}, nil)
	e1, _ := s.reg.get("g")

	postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
		{"op": "remove", "u": 0, "v": 1},
	}}, nil)

	// A computation that was in flight for the pre-mutation version
	// finishes now: the liveness recheck must keep it out of the cache.
	key := cacheKey{e1.name, e1.version, "core", "and", 0}
	res := resolvePooled(t, s, e1, "core")
	if res == nil {
		t.FailNow()
	}
	// It still computed against the old snapshot (K6: all κ = 5).
	if res.MaxKappa != 5 {
		t.Fatalf("old-version result: maxκ = %d, want 5", res.MaxKappa)
	}
	if _, ok := s.cache.get(key); ok {
		t.Fatal("stale-version result remained cached after mutation")
	}
}

// TestStatsCacheAccountingInvariant pins the per-request invariant
// hits + misses == lookups == resolved decomposition requests, including
// jobs that coalesce onto an in-flight computation or find the key cached
// only after submission (the historical drift).
func TestStatsCacheAccountingInvariant(t *testing.T) {
	ts := testServer(t, Config{Workers: 1})
	postJSON(t, ts.URL+"/graphs/g/generate",
		map[string]any{"generator": "planted", "communities": 4, "size": 24, "p": 0.7, "interEdges": 30, "seed": 3}, nil)

	// Same-key jobs racing on a single worker: exactly one computes; the
	// rest are resolved as hits at submit time, at run time, or by
	// coalescing.
	const jobs = 6
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var jv jobView
			if resp := postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core"}, &jv); resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			ids[i] = jv.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		if v := waitForJob(t, ts.URL, id); v.State != JobDone {
			t.Fatalf("job %s: %+v", id, v)
		}
	}
	// Two synchronous consumers of the same key.
	doJSON(t, "GET", ts.URL+"/graphs/g/hierarchy?dec=core", nil, nil)
	doJSON(t, "GET", ts.URL+"/graphs/g/hierarchy?dec=core", nil, nil)

	st := getStats(t, ts.URL)
	wantLookups := int64(jobs + 2)
	if st.Cache.Lookups != wantLookups {
		t.Fatalf("lookups = %d, want %d (%+v)", st.Cache.Lookups, wantLookups, jsonString(&st.Cache))
	}
	if st.Cache.Hits.Load()+st.Cache.Misses.Load() != st.Cache.Lookups {
		t.Fatalf("hits+misses != lookups: %+v", jsonString(&st.Cache))
	}
	if st.Cache.Misses.Load() != 1 {
		t.Fatalf("exactly one request should have paid the computation: %+v", jsonString(&st.Cache))
	}
	if st.Mutations.ColdRuns.Load() != 1 {
		t.Fatalf("exactly one cold run should have executed: %+v", jsonString(&st.Mutations))
	}
}
