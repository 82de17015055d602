package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// uploadPath registers the n-vertex path 0–1–…–(n−1) under name. The
// path is the slowest-converging core instance per cell count for SND
// (the endpoints' influence travels one hop per synchronous sweep, so
// full convergence needs ~n/2 sweeps), which makes it the ideal fixture
// for budgets, streams and cancellation.
func uploadPath(t *testing.T, base, name string, n int) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	resp, err := http.Post(base+"/graphs/"+name, "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d", name, resp.StatusCode)
	}
}

// pathCoreKappa returns the exact core numbers of the n-path (computed
// independently through the peeling baseline).
func pathCoreKappa(n int) []int32 {
	edges := make([][2]uint32, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]uint32{uint32(i), uint32(i + 1)})
	}
	return peel.Run(nucleus.NewCore(graph.Build(n, edges))).Kappa
}

// TestBudgetedQuerySweeps is the acceptance scenario: on a graph whose
// full decomposition takes ≥10 sweeps, ?maxSweeps=2 returns in budget
// with approximate:true, a τ vector that upper-bounds the converged κ
// pointwise, and convergence stats; and once the exact result is cached,
// the same budgeted query also reports its true accuracy.
func TestBudgetedQuerySweeps(t *testing.T) {
	const n = 41
	ts := testServer(t, Config{Workers: 1})
	uploadPath(t, ts.URL, "p", n)
	exact := pathCoreKappa(n)

	var budget decomposeResponse
	resp := doJSON(t, "GET", ts.URL+"/graphs/p/decompose?dec=core&alg=snd&max_sweeps=2&tau=true", nil, &budget)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted decompose: status %d", resp.StatusCode)
	}
	if !budget.Approximate || budget.Converged {
		t.Fatalf("budgeted run not marked approximate: %+v", budget)
	}
	if budget.Sweeps != 2 || budget.StoppedBy != "sweeps" {
		t.Fatalf("budgeted run: sweeps=%d stoppedBy=%q, want 2/sweeps", budget.Sweeps, budget.StoppedBy)
	}
	if len(budget.Tau) != n {
		t.Fatalf("τ vector has %d cells, want %d", len(budget.Tau), n)
	}
	strict := false
	for c, tau := range budget.Tau {
		if tau < exact[c] {
			t.Fatalf("cell %d: budgeted τ %d < κ %d", c, tau, exact[c])
		}
		if tau > exact[c] {
			strict = true
		}
	}
	if !strict {
		t.Fatal("2-sweep τ already equals κ everywhere; fixture too easy to exercise approximation")
	}
	if budget.Convergence.UpdateRate <= 0 || budget.Convergence.FractionStable >= 1 {
		t.Fatalf("convergence stats missing: %+v", budget.Convergence)
	}
	if budget.Accuracy != nil {
		t.Fatalf("accuracy reported without a converged baseline: %+v", budget.Accuracy)
	}

	// Full decomposition of the same graph: must converge, match κ, and
	// take the ≥10 sweeps the acceptance criterion demands of the fixture.
	var full decomposeResponse
	doJSON(t, "GET", ts.URL+"/graphs/p/decompose?dec=core&alg=snd&tau=true", nil, &full)
	if !full.Converged || full.Approximate || full.StoppedBy != "" {
		t.Fatalf("full run: %+v", full)
	}
	if full.Sweeps < 10 {
		t.Fatalf("full decomposition took %d sweeps; fixture must need >= 10", full.Sweeps)
	}
	for c, tau := range full.Tau {
		if tau != exact[c] {
			t.Fatalf("cell %d: converged τ %d != κ %d", c, tau, exact[c])
		}
	}

	// The exact result is now cached, so the budgeted query can quantify
	// its own error.
	doJSON(t, "GET", ts.URL+"/graphs/p/decompose?dec=core&alg=snd&maxSweeps=2", nil, &budget)
	if budget.Accuracy == nil {
		t.Fatal("accuracy missing despite cached converged baseline")
	}
	if budget.Accuracy.MaxError < 1 || budget.Accuracy.ExactFraction >= 1 {
		t.Fatalf("accuracy implausible for a 2-sweep path approximation: %+v", budget.Accuracy)
	}
}

// TestBudgetedQueryDeadline pins the wall-clock budget: a ?maxMs=
// deadline on a graph far too large to converge in it returns promptly
// with approximate:true and stoppedBy:"deadline", and /stats counts the
// deadline stop.
func TestBudgetedQueryDeadline(t *testing.T) {
	ts := testServer(t, Config{Workers: 1})
	uploadPath(t, ts.URL, "big", 20001) // ~10k SND sweeps: unreachable in 2ms

	start := time.Now()
	var out decomposeResponse
	resp := doJSON(t, "GET", ts.URL+"/graphs/big/decompose?dec=core&alg=snd&max_ms=2", nil, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline decompose: status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline-budgeted query took %v", elapsed)
	}
	if !out.Approximate || out.StoppedBy != "deadline" {
		t.Fatalf("deadline run: approximate=%v stoppedBy=%q", out.Approximate, out.StoppedBy)
	}
	if out.Sweeps < 1 {
		t.Fatalf("deadline run finished %d sweeps; the first sweep must always complete", out.Sweeps)
	}

	var st statsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Anytime.BudgetedQueries.Load() < 1 || st.Anytime.DeadlineStops.Load() < 1 {
		t.Fatalf("anytime stats missed the deadline stop: %+v", jsonString(&st.Anytime))
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE consumes a text/event-stream body into parsed events.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != nil {
				events = append(events, cur)
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append([]byte(nil), strings.TrimPrefix(line, "data: ")...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestJobStreamSSE submits a slow SND job and verifies the acceptance
// behavior of GET /jobs/{id}/stream: progress events with non-increasing
// (and eventually strictly decreasing) max-τ, terminated by a done event
// carrying the exact converged result.
func TestJobStreamSSE(t *testing.T) {
	const n = 4001 // ~2k SND sweeps: long enough to stream mid-run
	ts := testServer(t, Config{Workers: 1})
	uploadPath(t, ts.URL, "p", n)

	var jv jobView
	postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "p", Decomposition: "core", Algorithm: "snd"}, &jv)
	resp, err := http.Get(ts.URL + "/jobs/" + jv.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	if len(events) == 0 {
		t.Fatal("stream produced no events")
	}
	if events[len(events)-1].event != "done" {
		t.Fatalf("stream did not terminate with done: last event %q", events[len(events)-1].event)
	}

	var maxTaus []int32
	for _, ev := range events[:len(events)-1] {
		if ev.event != "progress" {
			t.Fatalf("unexpected event %q before done", ev.event)
		}
		var sv progressSnapshotView
		if err := json.Unmarshal(ev.data, &sv); err != nil {
			t.Fatalf("bad progress payload %q: %v", ev.data, err)
		}
		if sv.Cells != n {
			t.Fatalf("progress snapshot has %d cells, want %d", sv.Cells, n)
		}
		maxTaus = append(maxTaus, sv.MaxTau)
	}
	if len(maxTaus) < 2 {
		t.Fatalf("only %d progress events; job finished before the stream attached", len(maxTaus))
	}
	for i := 1; i < len(maxTaus); i++ {
		if maxTaus[i] > maxTaus[i-1] {
			t.Fatalf("max τ rose mid-stream: %d after %d", maxTaus[i], maxTaus[i-1])
		}
	}

	var done jobProgressResponse
	if err := json.Unmarshal(events[len(events)-1].data, &done); err != nil {
		t.Fatalf("bad done payload: %v", err)
	}
	if done.State != JobDone || done.Approximate || done.Snapshot == nil ||
		!done.Snapshot.Converged || !done.Snapshot.Final {
		t.Fatalf("done event not terminal-exact: %+v", done)
	}
	// Path core numbers are all 1, but τ starts at the degrees (max 2):
	// the stream must have witnessed the strict decrease to the exact κ.
	if done.Snapshot.MaxTau != 1 || maxTaus[0] != 2 {
		t.Fatalf("max τ did not decrease strictly to κ: first %d, final %d", maxTaus[0], done.Snapshot.MaxTau)
	}

	// The job result equals the independently computed exact κ.
	exact := pathCoreKappa(n)
	var res jobResultResponse
	doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/result?kappa=true", nil, &res)
	for c, k := range res.Kappa {
		if k != exact[c] {
			t.Fatalf("cell %d: job κ %d != exact %d", c, k, exact[c])
		}
	}

	var st statsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Anytime.Streams.Load() < 1 || st.Anytime.ProgressSnapshots.Load() < int64(len(maxTaus)) {
		t.Fatalf("anytime stats undercount the stream: %+v", jsonString(&st.Anytime))
	}
}

// TestCancelRunningJob exercises cooperative cancellation end to end:
// DELETE on a running job returns 202, the engine stops at its next
// sweep boundary, the job lands in state cancelled, and its progress
// endpoint still serves the final (partial, uncertified) snapshot.
func TestCancelRunningJob(t *testing.T) {
	ts := testServer(t, Config{Workers: 1})
	uploadPath(t, ts.URL, "slow", 40001) // hours of sweeps if cancellation fails... minutes, but enough

	var jv jobView
	postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "slow", Decomposition: "core", Algorithm: "snd"}, &jv)

	// Wait until it is actually running.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var cur jobView
		doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID, nil, &cur)
		if cur.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started running: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+jv.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE running job: status %d, want 202", resp.StatusCode)
	}

	deadline = time.Now().Add(30 * time.Second)
	var cur jobView
	for {
		doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID, nil, &cur)
		if terminal(cur.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not stop after cancellation: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cur.State != JobCancelled {
		t.Fatalf("cancelled job ended as %s", cur.State)
	}

	var prog jobProgressResponse
	doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/progress", nil, &prog)
	if prog.State != JobCancelled || !prog.Approximate || prog.Snapshot == nil || prog.Snapshot.Converged {
		t.Fatalf("cancelled job progress: %+v", prog)
	}

	// A second DELETE conflicts; an unknown id is 404.
	req, _ = http.NewRequest("DELETE", ts.URL+"/jobs/"+jv.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-DELETE: status %d, want 409", resp.StatusCode)
	}
	req, _ = http.NewRequest("DELETE", ts.URL+"/jobs/zzz", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d, want 404", resp.StatusCode)
	}

	var st statsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Jobs.Cancelled.Load() != 1 {
		t.Fatalf("stats cancelled = %d, want 1", st.Jobs.Cancelled.Load())
	}
}

// TestCancelQueuedJob: with a single worker busy on a long job, a queued
// job cancels instantly (200, state cancelled) and never runs.
func TestCancelQueuedJob(t *testing.T) {
	ts := testServer(t, Config{Workers: 1})
	uploadPath(t, ts.URL, "slow", 40001)
	uploadPath(t, ts.URL, "tiny", 5)

	var long jobView
	postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "slow", Decomposition: "core", Algorithm: "snd"}, &long)
	var queued jobView
	postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "tiny", Decomposition: "core", Algorithm: "snd"}, &queued)

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cv jobView
	if err := json.NewDecoder(resp.Body).Decode(&cv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cv.State != JobCancelled {
		t.Fatalf("DELETE queued job: status %d state %s, want 200 cancelled", resp.StatusCode, cv.State)
	}

	// Unblock the worker.
	req, _ = http.NewRequest("DELETE", ts.URL+"/jobs/"+long.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForJob(t, ts.URL, long.ID)

	var st statsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Jobs.Cancelled.Load() != 2 {
		t.Fatalf("stats cancelled = %d, want 2", st.Jobs.Cancelled.Load())
	}
	// The hits+misses invariant survives cancellation (both jobs resolve
	// their deferred accounting).
	if st.Cache.Hits.Load()+st.Cache.Misses.Load() != st.Cache.Lookups {
		t.Fatalf("cache accounting broken: %+v", jsonString(&st.Cache))
	}
}

// TestProgressDisabled pins ProgressEvery<0: jobs run without a live
// publisher, and the progress endpoint synthesizes its snapshot from the
// terminal result.
func TestProgressDisabled(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, ProgressEvery: -1})
	uploadPath(t, ts.URL, "p", 41)

	var jv jobView
	postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "p", Decomposition: "core", Algorithm: "snd"}, &jv)
	final := waitForJob(t, ts.URL, jv.ID)
	if final.State != JobDone {
		t.Fatalf("job ended as %s", final.State)
	}
	var prog jobProgressResponse
	doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/progress", nil, &prog)
	if prog.Snapshot == nil || !prog.Snapshot.Final || !prog.Snapshot.Converged || prog.Approximate {
		t.Fatalf("synthesized progress wrong: %+v", prog)
	}
	var st statsResponse
	doJSON(t, "GET", ts.URL+"/stats", nil, &st)
	if st.Anytime.ProgressSnapshots.Load() != 0 {
		t.Fatalf("progress disabled but %d snapshots published", st.Anytime.ProgressSnapshots.Load())
	}
}
