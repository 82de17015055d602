package server

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/store"
)

// e2eDataDir returns a fresh data directory for a recovery test. When
// NUCLEUS_E2E_DATADIR is set (the CI tier-2 job), directories are created
// under it and retained, so a failing run's snapshots and WALs can be
// uploaded as a debugging artifact; otherwise t.TempDir cleans up.
func e2eDataDir(t *testing.T) string {
	t.Helper()
	root := os.Getenv("NUCLEUS_E2E_DATADIR")
	if root == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(root, strings.ReplaceAll(t.Name(), "/", "_")+"-*")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func openFS(t *testing.T, dir string) *store.FS {
	t.Helper()
	st, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// allCoreNumbers fetches the full maintained κ array of a graph through
// the point-lookup endpoint.
func allCoreNumbers(t *testing.T, base, name string, n int) coreLookupResponse {
	t.Helper()
	var sb strings.Builder
	for v := 0; v < n; v++ {
		if v > 0 {
			sb.WriteByte('&')
		}
		fmt.Fprintf(&sb, "v=%d", v)
	}
	var cl coreLookupResponse
	if resp := doJSON(t, "GET", base+"/graphs/"+name+"/core?"+sb.String(), nil, &cl); resp.StatusCode != 200 {
		t.Fatalf("core lookup on %q: status %d", name, resp.StatusCode)
	}
	return cl
}

// TestCrashRecoveryE2E is the acceptance flow for the durable store:
// upload → decompose → mutate (several WAL batches) → SIGKILL → restart →
// every graph back at its exact pre-kill version with identical per-vertex
// core numbers, ≥1 replay in /stats, and zero cold decompositions for the
// warm-seeded core family.
//
// The kill is simulated by abandoning the first Server without Close: the
// store fsyncs every snapshot and WAL frame before acknowledging, so there
// is nothing an orderly shutdown would flush — from the store's point of
// view, dropping the process here IS a SIGKILL.
func TestCrashRecoveryE2E(t *testing.T) {
	dir := e2eDataDir(t)

	// --- Instance 1: build up state. ---
	s1 := New(Config{Workers: 2, Store: openFS(t, dir)})
	ts1 := httptest.NewServer(s1)

	g := graph.PowerLawCluster(400, 4, 0.4, 11)
	doJSON(t, "POST", ts1.URL+"/graphs/mutable", strings.NewReader(edgeListBody(g)), nil)
	// A second, never-mutated graph: recovery must bring it back too, from
	// its snapshot alone.
	postJSON(t, ts1.URL+"/graphs/static/generate", map[string]any{"generator": "complete", "n": 7}, nil)

	// Converged cold runs so the mutation path maintains κ and warm-seeds.
	for _, dec := range []string{"core", "truss"} {
		var jv jobView
		postJSON(t, ts1.URL+"/jobs", map[string]any{"graph": "mutable", "decomposition": dec}, &jv)
		if v := waitForJob(t, ts1.URL, jv.ID); v.State != JobDone || !v.Converged {
			t.Fatalf("cold %s job: %+v", dec, v)
		}
	}

	// Three WAL batches: adds that grow the graph, a growTo, removals.
	var mr mutateResponse
	postJSON(t, ts1.URL+"/graphs/mutable/edges", map[string]any{"edits": []map[string]any{
		{"op": "add", "u": 0, "v": 399},
		{"op": "add", "u": 1, "v": 400}, // grows to 401 vertices
		{"op": "add", "u": 2, "v": 3},
	}}, &mr)
	postJSON(t, ts1.URL+"/graphs/mutable/edges", map[string]any{
		"edits":  []map[string]any{{"op": "add", "u": 5, "v": 6}},
		"growTo": 410,
	}, &mr)
	e0 := g.Edges()[0]
	if resp := postJSON(t, ts1.URL+"/graphs/mutable/edges", map[string]any{"edits": []map[string]any{
		{"op": "remove", "u": e0[0], "v": e0[1]},
		{"op": "add", "u": 7, "v": 8},
	}}, &mr); resp.StatusCode != 200 {
		t.Fatalf("mutation: status %d", resp.StatusCode)
	}

	var preMutable, preStatic graphView
	doJSON(t, "GET", ts1.URL+"/graphs/mutable", nil, &preMutable)
	doJSON(t, "GET", ts1.URL+"/graphs/static", nil, &preStatic)
	if preMutable.Version != mr.Version || preMutable.Mutations != 3 || preMutable.N != 410 {
		t.Fatalf("pre-kill mutable view: %+v", preMutable)
	}
	preKappa := allCoreNumbers(t, ts1.URL, "mutable", preMutable.N)
	if !preKappa.Maintained {
		t.Fatal("pre-kill κ not maintained")
	}

	// --- SIGKILL: drop instance 1 on the floor (no Close, no drain). ---
	ts1.Close()

	// --- Instance 2: recover from the same data directory. ---
	s2 := New(Config{Workers: 2, Store: openFS(t, dir)})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() { ts2.Close(); s2.Close() })

	var postMutable, postStatic graphView
	doJSON(t, "GET", ts2.URL+"/graphs/mutable", nil, &postMutable)
	doJSON(t, "GET", ts2.URL+"/graphs/static", nil, &postStatic)
	if postMutable != preMutable {
		t.Fatalf("mutable graph after recovery:\n got %+v\nwant %+v", postMutable, preMutable)
	}
	if postStatic != preStatic {
		t.Fatalf("static graph after recovery:\n got %+v\nwant %+v", postStatic, preStatic)
	}

	postKappa := allCoreNumbers(t, ts2.URL, "mutable", postMutable.N)
	if !postKappa.Maintained || postKappa.Version != preKappa.Version {
		t.Fatalf("recovered κ meta: %+v, want version %d", postKappa, preKappa.Version)
	}
	for v := range preKappa.CoreNumbers {
		if postKappa.CoreNumbers[v] != preKappa.CoreNumbers[v] {
			t.Fatalf("κ(%d) = %d after recovery, want %d", v, postKappa.CoreNumbers[v], preKappa.CoreNumbers[v])
		}
	}

	// Stats: both graphs replayed, the three committed batches re-applied,
	// the core family warm-seeded with ZERO cold decompositions.
	st := getStats(t, ts2.URL)
	if !st.Persistence.Enabled || st.Persistence.Replays.Load() != 2 {
		t.Fatalf("persistence stats after recovery: %+v", jsonString(&st.Persistence))
	}
	if st.Persistence.ReplayedBatches.Load() != 3 {
		t.Fatalf("replayed batches: %d, want 3", st.Persistence.ReplayedBatches.Load())
	}
	if st.Mutations.ColdRuns.Load() != 0 {
		t.Fatalf("recovery ran %d cold decompositions, want 0", st.Mutations.ColdRuns.Load())
	}
	if st.Mutations.WarmRuns.Load() < 1 {
		t.Fatalf("recovery warm-seeded nothing: %+v", jsonString(&st.Mutations))
	}

	// The first post-restart core request is served from the warm-seeded
	// cache (no recomputation at all), converged, and exact.
	var jv jobView
	postJSON(t, ts2.URL+"/jobs", map[string]any{"graph": "mutable", "decomposition": "core"}, &jv)
	if !jv.Cached || jv.State != JobDone || !jv.Converged {
		t.Fatalf("post-restart core job not served warm: %+v", jv)
	}
	var res jobResultResponse
	doJSON(t, "GET", ts2.URL+"/jobs/"+jv.ID+"/result?kappa=true", nil, &res)
	for v := range preKappa.CoreNumbers {
		if res.Kappa[v] != preKappa.CoreNumbers[v] {
			t.Fatalf("warm-served κ(%d) = %d, want %d", v, res.Kappa[v], preKappa.CoreNumbers[v])
		}
	}
	if st2 := getStats(t, ts2.URL); st2.Mutations.ColdRuns.Load() != 0 {
		t.Fatalf("post-restart core request decomposed cold: %+v", jsonString(&st2.Mutations))
	}

	// Mutating the recovered lineage keeps working (the overlay carried
	// across the restart) and matches an independent cold peel.
	postJSON(t, ts2.URL+"/graphs/mutable/edges", map[string]any{"edits": []map[string]any{
		{"op": "add", "u": 9, "v": 410}, // fresh endpoint: guaranteed non-no-op
	}}, &mr)
	if mr.Version <= postMutable.Version {
		t.Fatalf("post-recovery mutation version: %+v", mr)
	}
}

// TestCrashRecoveryCompacted: once the compactor has folded the WAL into a
// fresh snapshot, recovery replays zero batches yet still lands on the
// exact published version and κ.
func TestCrashRecoveryCompacted(t *testing.T) {
	dir := e2eDataDir(t)
	// 1-byte threshold: every committed batch immediately triggers
	// background compaction.
	s1 := New(Config{Workers: 2, Store: openFS(t, dir), WALCompactBytes: 1})
	ts1 := httptest.NewServer(s1)

	postJSON(t, ts1.URL+"/graphs/g/generate", map[string]any{"generator": "gnm", "n": 120, "m": 480, "seed": 3}, nil)
	var mr mutateResponse
	postJSON(t, ts1.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
		{"op": "add", "u": 0, "v": 119}, {"op": "add", "u": 1, "v": 120},
	}}, &mr)

	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, ts1.URL).Persistence.Compactions.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("compactor never folded the WAL: %+v", jsonString(&getStats(t, ts1.URL).Persistence))
		}
		time.Sleep(5 * time.Millisecond)
	}
	pre := allCoreNumbers(t, ts1.URL, "g", 121)
	ts1.Close()
	s1.Close() // orderly here; the kill path is covered by TestCrashRecoveryE2E

	s2 := New(Config{Workers: 2, Store: openFS(t, dir), WALCompactBytes: 1})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	st := getStats(t, ts2.URL)
	if st.Persistence.Replays.Load() != 1 || st.Persistence.ReplayedBatches.Load() != 0 {
		t.Fatalf("compacted recovery: %+v", jsonString(&st.Persistence))
	}
	var gv graphView
	doJSON(t, "GET", ts2.URL+"/graphs/g", nil, &gv)
	if gv.Version != mr.Version || gv.Mutations != 1 || gv.N != 121 {
		t.Fatalf("compacted recovery view: %+v, want version %d", gv, mr.Version)
	}
	post := allCoreNumbers(t, ts2.URL, "g", 121)
	if !post.Maintained {
		t.Fatal("compacted snapshot lost the maintained κ")
	}
	for v := range pre.CoreNumbers {
		if post.CoreNumbers[v] != pre.CoreNumbers[v] {
			t.Fatalf("κ(%d) = %d, want %d", v, post.CoreNumbers[v], pre.CoreNumbers[v])
		}
	}
}

// TestConcurrentMutatorsWarmSeed is the regression test for warm seeding
// escaping the per-name critical section: many goroutines mutate the SAME
// graph (each batch publishing a version and warm-seeding the cache) while
// readers hammer lookups and stats. Run under -race in CI. Afterwards the
// maintained κ must match a cold peel of the independently rebuilt graph,
// and every batch must have been published exactly once.
func TestConcurrentMutatorsWarmSeed(t *testing.T) {
	dir := e2eDataDir(t)
	ts, s := testServerWith(t, Config{Workers: 4, Store: openFS(t, dir)})
	g := graph.PowerLawCluster(300, 4, 0.5, 21)
	doJSON(t, "POST", ts.URL+"/graphs/g", strings.NewReader(edgeListBody(g)), nil)

	// Converged cold runs activate warm seeding on every published batch.
	for _, dec := range []string{"core", "truss"} {
		var jv jobView
		postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": dec}, &jv)
		if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
			t.Fatalf("%s job: %+v", dec, v)
		}
	}

	const (
		mutators = 8
		batches  = 4
	)
	// Every batch adds one edge with a globally unique fresh endpoint, so
	// all 32 batches are guaranteed non-no-ops and the edit set commutes —
	// the final graph is order-independent and mirrorable.
	var edits []graph.EdgeEdit
	var mu sync.Mutex
	var wg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				u := uint32((m*batches + b) % g.N())
				v := uint32(g.N() + m*batches + b) // fresh vertex: never a dup
				var mr mutateResponse
				resp := postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
					{"op": "add", "u": u, "v": v},
				}}, &mr)
				if resp.StatusCode != 200 || mr.Added != 1 {
					t.Errorf("mutator %d batch %d: status %d, %+v", m, b, resp.StatusCode, mr)
					return
				}
				mu.Lock()
				edits = append(edits, graph.EdgeEdit{Add: true, U: u, V: v})
				mu.Unlock()
			}
		}(m)
	}
	// Concurrent readers: point lookups and decomposition requests racing
	// the warm seeder must never observe torn state.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				doJSON(t, "GET", ts.URL+"/graphs/g/core?v=0&v=1", nil, nil)
				doJSON(t, "GET", ts.URL+"/stats", nil, nil)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var gv graphView
	doJSON(t, "GET", ts.URL+"/graphs/g", nil, &gv)
	if gv.Mutations != mutators*batches {
		t.Fatalf("published batches: %d, want %d", gv.Mutations, mutators*batches)
	}
	mirror := graph.ApplyEdits(g, 0, edits)
	if gv.N != mirror.N() || gv.M != mirror.M() {
		t.Fatalf("final shape (%d,%d), want (%d,%d)", gv.N, gv.M, mirror.N(), mirror.M())
	}
	want := peel.Run(nucleus.NewCore(mirror)).Kappa
	got := allCoreNumbers(t, ts.URL, "g", mirror.N())
	if !got.Maintained {
		t.Fatal("κ not maintained after concurrent batches")
	}
	for v := range want {
		if got.CoreNumbers[v] != want[v] {
			t.Fatalf("κ(%d) = %d, want %d", v, got.CoreNumbers[v], want[v])
		}
	}

	// And the WAL survived the interleaving: a fresh server recovers the
	// same final state.
	s.Close()
	s2 := New(Config{Workers: 2, Store: openFS(t, dir)})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	var rv graphView
	doJSON(t, "GET", ts2.URL+"/graphs/g", nil, &rv)
	if rv.Version != gv.Version || rv.Mutations != gv.Mutations || rv.N != gv.N || rv.M != gv.M {
		t.Fatalf("recovered view %+v, want %+v", rv, gv)
	}
	rec := allCoreNumbers(t, ts2.URL, "g", mirror.N())
	for v := range want {
		if rec.CoreNumbers[v] != want[v] {
			t.Fatalf("recovered κ(%d) = %d, want %d", v, rec.CoreNumbers[v], want[v])
		}
	}
}

// TestWarmSeedHoldsNoMutationLock pins the lock discipline directly: the
// warm seeder must complete while this test HOLDS the graph's mutation
// lock. If a refactor ever moves warm seeding back under that lock (the
// pre-PR-4 behavior, which serialized every queued batch behind
// graph-sized reconvergence), this deadlocks and fails by timeout.
func TestWarmSeedHoldsNoMutationLock(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 2})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "plc", "n": 200, "k": 4, "seed": 9}, nil)
	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core"}, &jv)
	waitForJob(t, ts.URL, jv.ID)
	postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{
		{"op": "add", "u": 0, "v": 199},
	}}, nil)
	e, ok := s.reg.get("g")
	if !ok {
		t.Fatal("graph vanished")
	}

	lock := s.reg.mutationLock("g")
	lock.Lock()
	defer lock.Unlock()
	done := make(chan []string, 1)
	go func() {
		// Re-seed the current version from its own cached results: the
		// full warm-seed body (instance fetch, reconvergence, cache put,
		// liveness recheck) runs while the mutation lock is held above.
		done <- s.warmSeed(e, e, 0, nil)
	}()
	select {
	case seeded := <-done:
		if len(seeded) == 0 {
			t.Fatal("warm seeder did no work; the lock-freedom check proved nothing")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("warm seeding blocked on the per-name mutation lock")
	}
}
