package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nucleus/internal/graph"
)

// testServerWith spins up a Server behind httptest and tears both down
// with the test, returning the Server for white-box assertions.
func testServerWith(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts, _ := testServerWith(t, cfg)
	return ts
}

// doJSON issues a request and decodes the JSON response into out (when
// non-nil), failing the test on transport errors.
func doJSON(t *testing.T, method, url string, body io.Reader, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return doJSON(t, "POST", url, bytes.NewReader(data), out)
}

// waitForJob polls GET /jobs/{id} until the job leaves queued/running.
func waitForJob(t *testing.T, base, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		resp := doJSON(t, "GET", base+"/jobs/"+id, nil, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, resp.StatusCode)
		}
		if terminal(v.State) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobView{}
}

func getStats(t *testing.T, base string) *statsResponse {
	t.Helper()
	st := new(statsResponse)
	if resp := doJSON(t, "GET", base+"/stats", nil, st); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stats: status %d", resp.StatusCode)
	}
	return st
}

func TestHealthz(t *testing.T) {
	ts := testServer(t, Config{})
	var v map[string]string
	resp := doJSON(t, "GET", ts.URL+"/healthz", nil, &v)
	if resp.StatusCode != http.StatusOK || v["status"] != "ok" {
		t.Fatalf("healthz: status %d body %v", resp.StatusCode, v)
	}
}

func TestGraphUploadAndInfo(t *testing.T) {
	ts := testServer(t, Config{})
	// A triangle plus a pendant vertex.
	edges := "0 1\n1 2\n0 2\n2 3\n"
	var gv graphView
	resp := doJSON(t, "POST", ts.URL+"/graphs/tri", strings.NewReader(edges), &gv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	if gv.N != 4 || gv.M != 4 {
		t.Fatalf("upload: got n=%d m=%d, want n=4 m=4", gv.N, gv.M)
	}
	resp = doJSON(t, "GET", ts.URL+"/graphs/tri", nil, &gv)
	if resp.StatusCode != http.StatusOK || gv.Source != "upload:edgelist" {
		t.Fatalf("get: status %d source %q", resp.StatusCode, gv.Source)
	}

	var list []graphView
	doJSON(t, "GET", ts.URL+"/graphs", nil, &list)
	if len(list) != 1 || list[0].Name != "tri" {
		t.Fatalf("list: %+v", list)
	}

	// MatrixMarket upload of the same triangle (1-based).
	mm := "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"
	resp = doJSON(t, "POST", ts.URL+"/graphs/mmtri?format=mm", strings.NewReader(mm), &gv)
	if resp.StatusCode != http.StatusCreated || gv.N != 3 || gv.M != 3 {
		t.Fatalf("mm upload: status %d n=%d m=%d", resp.StatusCode, gv.N, gv.M)
	}

	// Bad format parameter.
	resp = doJSON(t, "POST", ts.URL+"/graphs/bad?format=nope", strings.NewReader(edges), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: status %d", resp.StatusCode)
	}

	// A negative count in the header is a parse error, not a panic of the
	// request goroutine (which the client sees as a dropped connection).
	for format, body := range map[string]string{
		"mm":    "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 -5\n",
		"metis": "3 -5\n",
	} {
		resp = doJSON(t, "POST", ts.URL+"/graphs/bad?format="+format, strings.NewReader(body), nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("negative count, format %s: status %d", format, resp.StatusCode)
		}
	}

	// Delete and 404 afterwards.
	if resp := doJSON(t, "DELETE", ts.URL+"/graphs/tri", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/graphs/tri", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
}

func TestGenerateGraph(t *testing.T) {
	ts := testServer(t, Config{})
	var gv graphView
	resp := postJSON(t, ts.URL+"/graphs/k6/generate", map[string]any{"generator": "complete", "n": 6}, &gv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}
	if gv.N != 6 || gv.M != 15 {
		t.Fatalf("K6: got n=%d m=%d, want n=6 m=15", gv.N, gv.M)
	}
	resp = postJSON(t, ts.URL+"/graphs/x/generate", map[string]any{"generator": "nope"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad generator: status %d", resp.StatusCode)
	}
}

// TestEndToEndFlow is the acceptance flow: generate a graph, run an async
// k-truss decomposition job, fetch its κ histogram, answer a query-driven
// core estimate, and verify that a repeated decomposition request is
// served from the LRU cache via the /stats counters.
func TestEndToEndFlow(t *testing.T) {
	ts := testServer(t, Config{Workers: 2})

	// Upload a generated graph: K6, where every edge lies in 4 triangles,
	// so the (2,3) κ index of all 15 edges is 4.
	var gv graphView
	if resp := postJSON(t, ts.URL+"/graphs/k6/generate", map[string]any{"generator": "complete", "n": 6}, &gv); resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}

	// Async k-truss decomposition job.
	var jv jobView
	resp := postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "k6", "decomposition": "truss", "algorithm": "and"}, &jv)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if jv.Cached {
		t.Fatal("first job should not be a cache hit")
	}
	done := waitForJob(t, ts.URL, jv.ID)
	if done.State != JobDone || !done.Converged {
		t.Fatalf("job: %+v", done)
	}

	// κ histogram: all 15 edges at κ = 4.
	var res jobResultResponse
	if resp := doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/result", nil, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	if res.MaxKappa != 4 || len(res.Histogram) != 5 || res.Histogram[4] != 15 {
		t.Fatalf("histogram: maxKappa=%d hist=%v", res.MaxKappa, res.Histogram)
	}
	if res.Kappa != nil {
		t.Fatal("kappa array should be omitted without ?kappa=true")
	}
	doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/result?kappa=true", nil, &res)
	if len(res.Kappa) != 15 {
		t.Fatalf("kappa: %v", res.Kappa)
	}

	// Query-driven core estimate: in K6 every vertex has core number 5,
	// and hops=1 already covers the whole graph.
	var est estimateResponse
	resp = postJSON(t, ts.URL+"/estimate/core", map[string]any{"graph": "k6", "vertices": []int{0, 3}, "hops": 1}, &est)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d", resp.StatusCode)
	}
	if len(est.Estimates) != 2 || est.Estimates[0] != 5 || est.Estimates[1] != 5 {
		t.Fatalf("estimates: %+v", est)
	}
	if est.ActiveCells != 6 {
		t.Fatalf("activeCells: got %d, want 6", est.ActiveCells)
	}

	// Repeated decomposition request: must be a cache hit, visible in
	// /stats.
	before := getStats(t, ts.URL)
	var jv2 jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "k6", "decomposition": "truss", "algorithm": "and"}, &jv2)
	if !jv2.Cached || jv2.State != JobDone {
		t.Fatalf("repeat job not served from cache: %+v", jv2)
	}
	after := getStats(t, ts.URL)
	if after.Cache.Hits.Load() != before.Cache.Hits.Load()+1 {
		t.Fatalf("cache hits: before=%d after=%d", before.Cache.Hits.Load(), after.Cache.Hits.Load())
	}
	if after.Jobs.Done.Load() < 2 {
		t.Fatalf("jobs done: %d", after.Jobs.Done.Load())
	}
}

func TestEstimateTrussAndValidation(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/k5/generate", map[string]any{"generator": "complete", "n": 5}, nil)

	// K5: every edge lies in 3 triangles, κ₃ = 3. Edge [0,9] is absent
	// (vertex 9 doesn't exist → 400); [3,4] is present.
	var est estimateResponse
	resp := postJSON(t, ts.URL+"/estimate/truss", map[string]any{"graph": "k5", "edges": [][2]int{{0, 1}, {3, 4}}, "hops": 1}, &est)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d", resp.StatusCode)
	}
	if len(est.Estimates) != 2 || est.Estimates[0] != 3 || est.Estimates[1] != 3 {
		t.Fatalf("truss estimates: %+v", est)
	}

	// Out-of-range vertex.
	resp = postJSON(t, ts.URL+"/estimate/core", map[string]any{"graph": "k5", "vertices": []int{99}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out of range: status %d", resp.StatusCode)
	}
	// Unknown graph.
	resp = postJSON(t, ts.URL+"/estimate/core", map[string]any{"graph": "nope", "vertices": []int{0}}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}
	// Empty queries.
	resp = postJSON(t, ts.URL+"/estimate/core", map[string]any{"graph": "k5", "vertices": []int{}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty vertices: status %d", resp.StatusCode)
	}
}

func TestJobValidationAndLifecycle(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)

	// Unknown graph → 404.
	resp := postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "nope"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d", resp.StatusCode)
	}
	// Bad decomposition → 400.
	resp = postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "quux"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dec: status %d", resp.StatusCode)
	}
	// Unknown job id → 404.
	if resp := doJSON(t, "GET", ts.URL+"/jobs/j999", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", resp.StatusCode)
	}

	// Result of an unfinished job → 409. Submit against a larger graph so
	// there is a window where the job is queued or running; if it still
	// finishes first, the 200 is fine and we only check the done path.
	var jv jobView
	postJSON(t, ts.URL+"/graphs/big/generate", map[string]any{"generator": "gnm", "n": 20000, "m": 100000}, nil)
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "big", "decomposition": "truss"}, &jv)
	resp = doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/result", nil, nil)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("pending result: status %d", resp.StatusCode)
	}
	if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
		t.Fatalf("big job: %+v", v)
	}

	// Peel and SND also work, and peel shares a cache slot regardless of
	// the sweep budget.
	var pv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core", "algorithm": "peel", "maxSweeps": 7}, &pv)
	if v := waitForJob(t, ts.URL, pv.ID); v.State != JobDone || !v.Converged {
		t.Fatalf("peel job: %+v", v)
	}
	var pv2 jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core", "algorithm": "peel", "maxSweeps": 3}, &pv2)
	if !pv2.Cached {
		t.Fatalf("peel should ignore maxSweeps in the cache key: %+v", pv2)
	}
}

func TestCacheInvalidationOnReupload(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)

	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core"}, &jv)
	waitForJob(t, ts.URL, jv.ID)

	// Replacing the graph under the same name bumps the version, so the
	// next job must NOT see the old cached κ.
	doJSON(t, "POST", ts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n"), nil)
	var jv2 jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core"}, &jv2)
	if jv2.Cached {
		t.Fatal("job after re-upload must not hit the stale cache entry")
	}
	done := waitForJob(t, ts.URL, jv2.ID)
	if done.MaxKappa != 1 || done.Cells != 3 {
		t.Fatalf("path graph decomposition: %+v", done)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(2)
	k1 := cacheKey{graph: "a"}
	k2 := cacheKey{graph: "b"}
	k3 := cacheKey{graph: "c"}
	c.put(k1, &decompResult{MaxKappa: 1})
	c.put(k2, &decompResult{MaxKappa: 2})
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 evicted too early")
	}
	// k1 is now most recent, and a peek at k2 does not change that:
	// inserting k3 must evict k2.
	if _, ok := c.peek(k2); !ok {
		t.Fatal("k2 evicted too early")
	}
	c.put(k3, &decompResult{MaxKappa: 3})
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 should survive")
	}
	if c.len() != 2 {
		t.Fatalf("len: %d", c.len())
	}
}

func TestHierarchyNucleiDensest(t *testing.T) {
	ts := testServer(t, Config{})
	// Two K5s joined by a single bridge edge: two dense communities.
	postJSON(t, ts.URL+"/graphs/cc/generate", map[string]any{"generator": "cliquechain", "count": 2, "k": 5}, nil)

	// Truss nuclei at k=3: every K5 edge lies in 3 triangles (κ₃ = 3)
	// while the bridge edge lies in none, so the two cliques separate
	// into two 10-edge nuclei of 5 vertices each.
	var nr nucleiResponse
	resp := doJSON(t, "GET", ts.URL+"/graphs/cc/nuclei?dec=truss&k=3", nil, &nr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nuclei: status %d", resp.StatusCode)
	}
	if len(nr.Nuclei) != 2 {
		t.Fatalf("nuclei: got %d, want 2: %+v", len(nr.Nuclei), nr)
	}
	for _, nuc := range nr.Nuclei {
		if len(nuc.Vertices) != 5 || nuc.Cells != 10 {
			t.Fatalf("nucleus: %+v", nuc)
		}
	}

	// Hierarchy JSON decodes into nested nodes.
	var forest []struct {
		K        int32           `json:"k"`
		Cells    int             `json:"cells"`
		Children json.RawMessage `json:"children"`
	}
	resp = doJSON(t, "GET", ts.URL+"/graphs/cc/hierarchy?dec=truss", nil, &forest)
	if resp.StatusCode != http.StatusOK || len(forest) == 0 {
		t.Fatalf("hierarchy: status %d forest %+v", resp.StatusCode, forest)
	}

	// Densest subgraph: one of the K5s (average degree 4).
	var dr densestResponse
	resp = doJSON(t, "GET", ts.URL+"/graphs/cc/densest", nil, &dr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("densest: status %d", resp.StatusCode)
	}
	if dr.AverageDegree < 4 || len(dr.Vertices) < 5 {
		t.Fatalf("densest: %+v", dr)
	}
	if resp := doJSON(t, "GET", ts.URL+"/graphs/cc/densest?method=nope", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad method: status %d", resp.StatusCode)
	}

	// The nuclei + hierarchy calls above share one cache slot (same
	// graph/dec/alg): the second must have been a hit.
	st := getStats(t, ts.URL)
	if st.Cache.Hits.Load() < 1 {
		t.Fatalf("expected a cache hit from the hierarchy endpoints: %+v", jsonString(&st.Cache))
	}
}

func TestConcurrentJobSubmission(t *testing.T) {
	ts := testServer(t, Config{Workers: 4, QueueDepth: 128})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "planted", "communities": 6, "size": 20, "p": 0.6, "interEdges": 40, "seed": 7}, nil)

	const goroutines = 16
	decs := []string{"core", "truss", "n34"}
	ids := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"graph": "g", "decomposition": decs[i%len(decs)]})
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var jv jobView
			if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusAccepted {
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

	kappas := make(map[string][]int32)
	for _, id := range ids {
		v := waitForJob(t, ts.URL, id)
		if v.State != JobDone {
			t.Fatalf("job %s: %+v", id, v)
		}
		var res jobResultResponse
		doJSON(t, "GET", ts.URL+"/jobs/"+id+"/result?kappa=true", nil, &res)
		dec := v.Decomposition
		if prev, ok := kappas[dec]; ok {
			if fmt.Sprint(prev) != fmt.Sprint(res.Kappa) {
				t.Fatalf("non-deterministic κ for %s", dec)
			}
		} else {
			kappas[dec] = res.Kappa
		}
	}

	// All 16 jobs over 3 distinct cache keys: exactly 3 misses pay the
	// three computations; every other request resolves as a hit (cached
	// at submit, cached at run, or coalesced). Per-request accounting
	// makes this exact: hits + misses == jobs.
	st := getStats(t, ts.URL)
	if st.Jobs.Done.Load() != goroutines {
		t.Fatalf("done: %d", st.Jobs.Done.Load())
	}
	if st.Cache.Hits.Load()+st.Cache.Misses.Load() != goroutines {
		t.Fatalf("cache accounting: %+v", jsonString(&st.Cache))
	}
	if st.Cache.Misses.Load() != 3 {
		t.Fatalf("misses = %d, want 3 (one per distinct key): %+v", st.Cache.Misses.Load(), jsonString(&st.Cache))
	}
}

func TestGracefulClose(t *testing.T) {
	s := New(Config{Workers: 2})
	// Close twice: must not panic or deadlock.
	s.Close()
	s.Close()
	// Submissions after close are rejected.
	if _, err := s.jobs.submit(jobRequest{Graph: "g"}, "", 0); err == nil {
		t.Fatal("submit after close should fail")
	}
}

func TestUploadSizeLimit(t *testing.T) {
	ts := testServer(t, Config{MaxUploadBytes: 16})
	resp := doJSON(t, "POST", ts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n"), nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", resp.StatusCode)
	}
}

func TestGeneratorSizeLimits(t *testing.T) {
	ts := testServer(t, Config{})
	for _, body := range []map[string]any{
		{"generator": "rmat", "scale": 40},
		{"generator": "gnm", "n": 2000000000},
		{"generator": "complete", "n": 1000000},
		{"generator": "ws", "n": 100000000, "k": 64},
		{"generator": "planted", "communities": 1 << 26, "size": 1 << 26},
	} {
		resp := postJSON(t, ts.URL+"/graphs/huge/generate", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestDeletePurgesCache(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)
	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core"}, &jv)
	waitForJob(t, ts.URL, jv.ID)
	if s.cache.len() != 1 {
		t.Fatalf("cache entries before delete: %d", s.cache.len())
	}
	doJSON(t, "DELETE", ts.URL+"/graphs/g", nil, nil)
	if s.cache.len() != 0 {
		t.Fatalf("cache entries after delete: %d, want 0", s.cache.len())
	}
}

func TestJobThreadsClamped(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 6}, nil)
	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core", "threads": 1000000000}, &jv)
	if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
		t.Fatalf("absurd thread count should be clamped, not crash: %+v", v)
	}
}

func TestJobHistoryPruning(t *testing.T) {
	ts := testServer(t, Config{JobHistory: 2})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)

	// Four jobs with distinct cache keys; all finish.
	ids := []string{}
	for _, dec := range []string{"core", "truss", "n34"} {
		var jv jobView
		postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": dec}, &jv)
		waitForJob(t, ts.URL, jv.ID)
		ids = append(ids, jv.ID)
	}
	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core", "algorithm": "peel"}, &jv)
	waitForJob(t, ts.URL, jv.ID)

	var list []jobView
	doJSON(t, "GET", ts.URL+"/jobs", nil, &list)
	if len(list) > 2 {
		t.Fatalf("job history not pruned: %d jobs retained", len(list))
	}
	// The oldest job has been evicted and now 404s.
	if resp := doJSON(t, "GET", ts.URL+"/jobs/"+ids[0], nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job: status %d", resp.StatusCode)
	}
}

func TestNegativeMaxSweepsSharesCacheSlot(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)

	var j1 jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core", "maxSweeps": -1}, &j1)
	if v := waitForJob(t, ts.URL, j1.ID); !v.Converged {
		t.Fatalf("negative budget should run to convergence: %+v", v)
	}
	var j2 jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "core", "maxSweeps": 0}, &j2)
	if !j2.Cached {
		t.Fatalf("maxSweeps -1 and 0 must share a cache slot: %+v", j2)
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	e := &graphEntry{name: "g", source: "test", g: mustGenerate(t, generateRequest{Generator: "gnm", N: 2000, M: 16000})}
	if _, err := s.installGraph(e, 0); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]*decompResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = resolvePooled(t, s, e, "truss")
		}(i)
	}
	wg.Wait()
	// All callers must share the single computed result object.
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a distinct result: computation was not coalesced", i)
		}
	}
}

// resolvePooled resolves (e, dec, "and", to convergence) the way a pool
// worker does: no synchronous-work slot, so concurrent callers all reach
// the flight table.
func resolvePooled(t *testing.T, s *Server, e *graphEntry, dec string) *decompResult {
	t.Helper()
	q, err := s.newQuery(e, dec, "and", 0, 1)
	if err != nil {
		t.Error(err)
		return nil
	}
	q.pooled = true
	res, _, err := s.resolve(q)
	if err != nil {
		t.Error(err)
	}
	return res
}

func mustGenerate(t *testing.T, req generateRequest) *graph.Graph {
	t.Helper()
	g, err := generate(req)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateExplicitZeroProbability(t *testing.T) {
	ts := testServer(t, Config{})
	// Watts–Strogatz with p=0 is a pure ring lattice: this generator links
	// each vertex to its k forward neighbors, so exactly n*k distinct
	// edges. With the old "0 means default" handling this got silently
	// rewired with p=0.1 (which collapses some duplicates, m < n*k).
	var gv graphView
	resp := postJSON(t, ts.URL+"/graphs/ring/generate",
		map[string]any{"generator": "ws", "n": 100, "k": 6, "p": 0.0}, &gv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}
	if gv.M != 600 {
		t.Fatalf("ring lattice: got m=%d, want exactly 600", gv.M)
	}
}

func TestDensestMemoized(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 6}, nil)
	var d1, d2 densestResponse
	doJSON(t, "GET", ts.URL+"/graphs/g/densest", nil, &d1)
	doJSON(t, "GET", ts.URL+"/graphs/g/densest", nil, &d2)
	if d1.AverageDegree != 5 || d2.AverageDegree != 5 {
		t.Fatalf("densest of K6: %+v %+v", d1, d2)
	}
}

func TestEstimateTrussEmptyRegion(t *testing.T) {
	ts := testServer(t, Config{})
	// Path 0-1-2: query the non-edge [0,2] with hops=0. The region {0,2}
	// contains no edge, which used to fall through to a FULL-graph
	// decomposition (nil Subset = all cells); now it must short-circuit
	// to activeCells=0 and still answer -1 for the non-edge.
	doJSON(t, "POST", ts.URL+"/graphs/path", strings.NewReader("0 1\n1 2\n"), nil)
	var est estimateResponse
	resp := postJSON(t, ts.URL+"/estimate/truss",
		map[string]any{"graph": "path", "edges": [][2]int{{0, 2}}, "hops": 0}, &est)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d", resp.StatusCode)
	}
	if est.ActiveCells != 0 || len(est.Estimates) != 1 || est.Estimates[0] != -1 {
		t.Fatalf("empty region estimate: %+v", est)
	}
}

func TestJobViewEmitsConvergedFalse(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate",
		map[string]any{"generator": "planted", "communities": 4, "size": 24, "p": 0.7, "interEdges": 30, "seed": 3}, nil)
	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{"graph": "g", "decomposition": "truss", "maxSweeps": 1}, &jv)
	waitForJob(t, ts.URL, jv.ID)
	// Raw body must contain "converged":false for a sweep-bounded run
	// (field-presence is part of the documented contract).
	resp, err := http.Get(ts.URL + "/jobs/" + jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"converged":false`) {
		t.Fatalf("bounded job body missing converged:false: %s", body)
	}
}

func TestGnMRejectsImpossibleEdgeCount(t *testing.T) {
	ts := testServer(t, Config{})
	// Only 1 distinct edge exists on 2 vertices; m=100 used to spin the
	// rejection sampler forever.
	resp := postJSON(t, ts.URL+"/graphs/x/generate", map[string]any{"generator": "gnm", "n": 2, "m": 100}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("impossible gnm: status %d, want 400", resp.StatusCode)
	}
}

func TestNucleiKOutOfInt32Range(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)
	for _, k := range []string{"2147483648", "-1"} {
		resp := doJSON(t, "GET", ts.URL+"/graphs/g/nuclei?dec=core&k="+k, nil, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("k=%s: status %d, want 400", k, resp.StatusCode)
		}
	}
}

func TestStaleResultNotCachedAfterReplace(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)
	e1, _ := s.reg.get("g")
	// Replace the graph; e1 is now a dead version.
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 6}, nil)

	// A computation that was in flight for the dead version finishes now:
	// the liveness recheck must take its insert back out of the cache.
	key := cacheKey{e1.name, e1.version, "core", "and", 0}
	resolvePooled(t, s, e1, "core")
	if _, ok := s.cache.get(key); ok {
		t.Fatal("stale-version result remained cached after replacement")
	}

	// The live version caches normally.
	e2, _ := s.reg.get("g")
	live := cacheKey{e2.name, e2.version, "core", "and", 0}
	resolvePooled(t, s, e2, "core")
	if _, ok := s.cache.get(live); !ok {
		t.Fatal("live-version result was not cached")
	}
}
