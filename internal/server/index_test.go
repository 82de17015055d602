package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"nucleus/internal/densest"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// jsonString canonicalizes a decoded JSON value for comparison.
func jsonString(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "<marshal error>"
	}
	return string(b)
}

// statsIndex fetches the /stats index section.
func statsIndex(t *testing.T, base string) *indexStats {
	t.Helper()
	var st statsResponse
	if resp := doJSON(t, "GET", base+"/stats", nil, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", resp.StatusCode)
	}
	return &st.Index
}

// TestInstanceReuseAcrossDecompositions proves the tentpole serving
// property: a second decomposition of the same graph version — even under
// a different algorithm and sweep budget, i.e. a result-cache miss — must
// reuse the memoized instance instead of rebuilding the s-clique index.
func TestInstanceReuseAcrossDecompositions(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, JobThreads: 2})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "planted", "communities": 3, "size": 12, "seed": 5}, nil)

	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "truss", "algorithm": "and"}, &jv)
	if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
		t.Fatalf("first job: state %s (%s)", v.State, v.Error)
	}
	after1 := statsIndex(t, ts.URL)
	if after1.Builds.Load() != 1 {
		t.Fatalf("after first truss job: builds = %d, want 1", after1.Builds.Load())
	}
	if after1.Bytes.Load() <= 0 {
		t.Fatalf("after first truss job: bytes = %d, want > 0", after1.Bytes.Load())
	}

	// Different algorithm + budget → different cache key → the engine runs
	// again, but the index build counter must not move.
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "truss", "algorithm": "snd", "maxSweeps": 2}, &jv)
	if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
		t.Fatalf("second job: state %s (%s)", v.State, v.Error)
	}
	after2 := statsIndex(t, ts.URL)
	if after2.Builds.Load() != after1.Builds.Load() {
		t.Fatalf("second decompose rebuilt the index: builds %d → %d", after1.Builds.Load(), after2.Builds.Load())
	}
	if after2.Reuses.Load() <= after1.Reuses.Load() {
		t.Fatalf("second decompose did not reuse the instance: reuses %d → %d", after1.Reuses.Load(), after2.Reuses.Load())
	}

	// The memoized indexed instance also serves the synchronous estimate
	// path.
	resp := postJSON(t, ts.URL+"/estimate/truss", map[string]any{"graph": "g", "edges": [][2]int{{0, 1}}, "hops": 1}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d", resp.StatusCode)
	}
	after3 := statsIndex(t, ts.URL)
	if after3.Builds.Load() != after1.Builds.Load() || after3.Reuses.Load() <= after2.Reuses.Load() {
		t.Fatalf("estimate path: builds %d reuses %d, want builds unchanged and reuses to grow", after3.Builds.Load(), after3.Reuses.Load())
	}

	// Re-uploading the graph bumps the version: the old index dies with
	// its entry and the next request builds a fresh one.
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "planted", "communities": 3, "size": 12, "seed": 6}, nil)
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "truss", "algorithm": "and"}, &jv)
	if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
		t.Fatalf("post-replace job: state %s (%s)", v.State, v.Error)
	}
	after4 := statsIndex(t, ts.URL)
	if after4.Builds.Load() != after1.Builds.Load()+1 {
		t.Fatalf("new graph version: builds = %d, want %d", after4.Builds.Load(), after1.Builds.Load()+1)
	}
}

// TestIndexBudgetFallbackCounters checks that a disabled budget keeps
// serving correctly while counting fallbacks instead of builds, and that
// the core family never builds an index.
func TestIndexBudgetFallbackCounters(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 1, IndexMemBudget: -1}) // indexing disabled
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 8}, nil)

	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "truss"}, &jv)
	if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
		t.Fatalf("truss job: state %s (%s)", v.State, v.Error)
	}
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core"}, &jv)
	if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
		t.Fatalf("core job: state %s (%s)", v.State, v.Error)
	}
	st := statsIndex(t, ts.URL)
	if st.Builds.Load() != 0 || st.Bytes.Load() != 0 {
		t.Fatalf("disabled budget built an index: %+v", st)
	}
	if st.Fallbacks.Load() != 2 {
		t.Fatalf("fallbacks = %d, want 2 (truss + core)", st.Fallbacks.Load())
	}

	// White-box: with indexing disabled the memo must hold an on-the-fly
	// instance.
	e, ok := s.reg.get("g")
	if !ok {
		t.Fatal("graph g missing")
	}
	if s.instanceOf(e, nucleus.FamilyTruss).Rows().Offs != nil {
		t.Fatal("disabled budget produced an instance with stored rows")
	}
}

// TestOpenBuildBlocksOnlyItsKey: an entry's instances and densest subgraphs
// share its graph's one memo. A densest build held open on it makes a
// request for the same method wait and then get that build's result, but
// blocks neither an instance lookup (or build) of any family nor the other
// method.
func TestOpenBuildBlocksOnlyItsKey(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 1})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 8}, nil)
	e, ok := s.reg.get("g")
	if !ok {
		t.Fatal("graph g missing")
	}
	release, started := make(chan struct{}), make(chan struct{})
	held := &densest.Result{Edges: 42}
	go graph.Memo(e.g, densestKey("approx"), func() *densest.Result { close(started); <-release; return held })
	<-started
	waiter := make(chan *densest.Result, 1)
	go func() { waiter <- e.densestFor("approx") }()

	others := make(chan struct{})
	go func() {
		defer close(others)
		for _, dec := range []nucleus.Family{nucleus.FamilyCore, nucleus.FamilyTruss, nucleus.FamilyN34} {
			s.instanceOf(e, dec)
		}
		e.densestFor("maxcore")
	}()
	select {
	case <-others:
	case <-time.After(10 * time.Second):
		t.Fatal("instance and maxcore lookups waited on the open approx build")
	}
	select {
	case <-waiter:
		t.Fatal("a request for the open key did not wait for its build")
	default:
	}
	close(release)
	if got := <-waiter; got != held {
		t.Fatalf("the waiting request got %+v, want the open build's result", got)
	}
}

// TestIndexedServingMatchesOnTheFly runs the same job on two servers —
// indexing enabled vs disabled — and demands identical κ histograms end
// to end.
func TestIndexedServingMatchesOnTheFly(t *testing.T) {
	gen := map[string]any{"generator": "planted", "communities": 3, "size": 12, "seed": 5}
	var histograms []map[string]any
	for _, budget := range []int64{0 /* default 1 GiB */, -1 /* disabled */} {
		ts, _ := testServerWith(t, Config{Workers: 1, IndexMemBudget: budget})
		postJSON(t, ts.URL+"/graphs/g/generate", gen, nil)
		var jv jobView
		postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "n34", "algorithm": "and"}, &jv)
		if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
			t.Fatalf("budget %d: job state %s (%s)", budget, v.State, v.Error)
		}
		var res map[string]any
		doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/result?kappa=true", nil, &res)
		histograms = append(histograms, res)
	}
	a, b := histograms[0], histograms[1]
	for _, key := range []string{"histogram", "kappa", "maxKappa", "converged"} {
		if got, want := jsonString(a[key]), jsonString(b[key]); got != want {
			t.Fatalf("indexed vs on-the-fly %s: %s vs %s", key, got, want)
		}
	}
}
