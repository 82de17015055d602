package server

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"nucleus/internal/graph"
)

// TestCrashRecoveryManyGraphsConcurrent exercises the concurrent startup
// replay: many independent lineages — some mutated (snapshot + WAL), some
// snapshot-only, with and without maintained κ — recovered by the
// worker-pool fan-out in recoverFromStore. Every graph must land at its
// exact pre-kill version with identical per-vertex core numbers,
// regardless of which worker replayed it.
func TestCrashRecoveryManyGraphsConcurrent(t *testing.T) {
	dir := e2eDataDir(t)

	s1 := New(Config{Workers: 2, JobThreads: 4, Store: openFS(t, dir)})
	ts1 := httptest.NewServer(s1)

	const numGraphs = 6
	type preState struct {
		view  graphView
		kappa coreLookupResponse
	}
	pre := make(map[string]preState, numGraphs)
	wantBatches := 0
	for i := 0; i < numGraphs; i++ {
		name := fmt.Sprintf("g%d", i)
		g := graph.PowerLawCluster(120+10*i, 4, 0.4, int64(20+i))
		doJSON(t, "POST", ts1.URL+"/graphs/"+name, strings.NewReader(edgeListBody(g)), nil)

		if i%2 == 0 {
			// Even graphs: decompose (so κ is maintained) then mutate,
			// leaving i/2+1 committed WAL batches to replay.
			var jv jobView
			postJSON(t, ts1.URL+"/jobs", map[string]any{"graph": name, "decomposition": "core"}, &jv)
			if v := waitForJob(t, ts1.URL, jv.ID); v.State != JobDone || !v.Converged {
				t.Fatalf("cold core job on %q: %+v", name, v)
			}
			for b := 0; b <= i/2; b++ {
				var mr mutateResponse
				if resp := postJSON(t, ts1.URL+"/graphs/"+name+"/edges", map[string]any{"edits": []map[string]any{
					{"op": "add", "u": 0, "v": uint32(g.N() + b)},
				}}, &mr); resp.StatusCode != 200 {
					t.Fatalf("mutating %q: status %d", name, resp.StatusCode)
				}
				wantBatches++
			}
		}

		var gv graphView
		doJSON(t, "GET", ts1.URL+"/graphs/"+name, nil, &gv)
		pre[name] = preState{view: gv, kappa: allCoreNumbers(t, ts1.URL, name, gv.N)}
	}

	// SIGKILL: abandon instance 1 (no Close — every frame is already synced).
	ts1.Close()

	s2 := New(Config{Workers: 2, JobThreads: 4, Store: openFS(t, dir)})
	ts2 := httptest.NewServer(s2)
	t.Cleanup(func() { ts2.Close(); s2.Close() })

	// Stats first: the κ verification below runs cold decompositions on the
	// never-decomposed lineages itself, so recovery's zero-cold-runs
	// guarantee has to be checked before any lookups.
	st := getStats(t, ts2.URL)
	if st.Persistence.Replays.Load() != numGraphs {
		t.Fatalf("replays = %d, want %d", st.Persistence.Replays.Load(), numGraphs)
	}
	if st.Persistence.ReplayedBatches.Load() != int64(wantBatches) {
		t.Fatalf("replayed batches = %d, want %d", st.Persistence.ReplayedBatches.Load(), wantBatches)
	}
	if st.Mutations.ColdRuns.Load() != 0 {
		t.Fatalf("recovery ran %d cold decompositions, want 0", st.Mutations.ColdRuns.Load())
	}

	for name, want := range pre {
		var gv graphView
		doJSON(t, "GET", ts2.URL+"/graphs/"+name, nil, &gv)
		if gv != want.view {
			t.Fatalf("%q after recovery:\n got %+v\nwant %+v", name, gv, want.view)
		}
		got := allCoreNumbers(t, ts2.URL, name, gv.N)
		if got.Maintained != want.kappa.Maintained || got.Version != want.kappa.Version {
			t.Fatalf("%q recovered κ meta: %+v, want %+v", name, got, want.kappa)
		}
		for v := range want.kappa.CoreNumbers {
			if got.CoreNumbers[v] != want.kappa.CoreNumbers[v] {
				t.Fatalf("%q: κ(%d) = %d after recovery, want %d", name, v, got.CoreNumbers[v], want.kappa.CoreNumbers[v])
			}
		}
	}

	// Version uniqueness across lineages must survive the concurrent bump:
	// a fresh mutation on any graph publishes above every recovered version.
	var maxVer uint64
	for _, want := range pre {
		if want.view.Version > maxVer {
			maxVer = want.view.Version
		}
	}
	var mr mutateResponse
	postJSON(t, ts2.URL+"/graphs/g1/edges", map[string]any{"edits": []map[string]any{
		// Fresh endpoint: guaranteed non-no-op, so a new version is published.
		{"op": "add", "u": 0, "v": pre["g1"].view.N},
	}}, &mr)
	if mr.Version <= maxVer {
		t.Fatalf("post-recovery mutation version %d not above recovered max %d", mr.Version, maxVer)
	}
}
