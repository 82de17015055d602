package server

// End-to-end tests for the workload-aware scheduler behind POST /jobs:
// observed-cost admission, deadline shedding with 503 + Retry-After,
// overload degradation to an anytime budget, tenant accounting, and the
// immediate queue-slot release on DELETE of a queued job. The fixtures
// lean on the package's path-graph idiom: SND on an n-vertex path needs
// ~n/2 sweeps, each cheap, so a long path makes a job that runs for
// minutes yet cancels in milliseconds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"

	"nucleus/internal/sched"
)

// submitTenantJob posts a job as a tenant with an optional ?deadlineMs,
// returning the decoded view and the raw response.
func submitTenantJob(t *testing.T, base, tenant string, deadlineMs int, req jobRequest) (jobView, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	url := base + "/jobs"
	if deadlineMs > 0 {
		url += "?deadlineMs=" + strconv.Itoa(deadlineMs)
	}
	httpReq, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		httpReq.Header.Set("X-Nucleus-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding submit response (status %d): %v", resp.StatusCode, err)
	}
	return v, resp
}

// waitRunning polls until the job reports running.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var v jobView
		doJSON(t, "GET", base+"/jobs/"+id, nil, &v)
		if v.State == JobRunning {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

func deleteJob(t *testing.T, base, id string, wantStatus int) {
	t.Helper()
	req, _ := http.NewRequest("DELETE", base+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE /jobs/%s: status %d, want %d", id, resp.StatusCode, wantStatus)
	}
}

// TestSchedulerOverloadE2E is the overload scenario from the scheduler
// design: one worker, a trained cost model, then a deadline burst across
// three tenants. Unmeetable deadlines are shed at admission with 503 +
// Retry-After, a tight-but-feasible deadline is degraded to a computed
// anytime budget whose answer comes back approximate, and /stats
// reconciles every outcome exactly.
func TestSchedulerOverloadE2E(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 1})

	// Train the cost model with a real completed run: a mid-sized path
	// teaches the global ms-per-cell rate that prices the cold keys below.
	uploadPath(t, ts.URL, "train", 4001)
	trained, resp := submitTenantJob(t, ts.URL, "", 0, jobRequest{Graph: "train", Decomposition: "core", Algorithm: "snd"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("training submit: status %d", resp.StatusCode)
	}
	if v := waitForJob(t, ts.URL, trained.ID); v.State != JobDone || !v.Converged {
		t.Fatalf("training job ended %+v", v)
	}
	if st := getStats(t, ts.URL); st.Scheduler.CostModel.Observations != 1 || st.Scheduler.CostModel.Entries != 1 {
		t.Fatalf("cost model not trained: %+v", st.Scheduler.CostModel)
	}

	// Occupy the single worker with a job that would run for minutes: the
	// backlog behind it is now governed purely by admission policy.
	uploadPath(t, ts.URL, "slow", 40001)
	blocker, resp := submitTenantJob(t, ts.URL, "t1", 0, jobRequest{Graph: "slow", Decomposition: "core", Algorithm: "snd"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d", resp.StatusCode)
	}
	if blocker.Tenant != "t1" || blocker.PredictedCostMs <= 0 {
		t.Fatalf("blocker view missing scheduling facts: %+v", blocker)
	}
	waitRunning(t, ts.URL, blocker.ID)

	// Sanity-check the fixture: the trained prediction for the in-flight
	// blocker must dominate the burst deadlines below, or the shed
	// assertions would be racing the worker.
	wait := s.jobs.sched.PredictedWaitMs()
	if wait < 5 {
		t.Fatalf("fixture too fast: predicted wait %.3fms, want >= 5ms (grow the slow path)", wait)
	}

	// Deadline burst: three tenants, two 1ms-deadline jobs each. All six
	// are unmeetable behind the blocker and must shed at admission.
	shedIDs := []string{}
	for _, tenant := range []string{"t1", "t2", "t3"} {
		for i := 0; i < 2; i++ {
			v, resp := submitTenantJob(t, ts.URL, tenant, 1, jobRequest{
				Graph: "slow", Decomposition: "core", Algorithm: "snd", MaxSweeps: 10 + i,
			})
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("burst submit (%s #%d): status %d, want 503", tenant, i, resp.StatusCode)
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < 1 {
				t.Fatalf("shed response Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
			}
			if v.State != JobShed || v.Tenant != tenant {
				t.Fatalf("shed view: %+v", v)
			}
			shedIDs = append(shedIDs, v.ID)
		}
	}
	// Shed jobs stay inspectable, and their result endpoint repeats the
	// 503 + Retry-After contract.
	for _, id := range shedIDs {
		var v jobView
		doJSON(t, "GET", ts.URL+"/jobs/"+id, nil, &v)
		if v.State != JobShed || v.Error == "" {
			t.Fatalf("shed job %s: %+v", id, v)
		}
		req, _ := http.NewRequest("GET", ts.URL+"/jobs/"+id+"/result", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("shed result: status %d Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}

	// Overload degradation: a deadline the job can start but not finish a
	// full run within. The deadline is placed a quarter of the predicted
	// full cost past the current wait, so admission must re-budget the job
	// rather than shed it or accept it whole. The job is SND, whose Jacobi
	// cascade along the path needs ~n/2 sweeps: the ~2 sweeps this deadline
	// buys leave it unconverged whatever a run's overhead (AND converges on
	// a path in two).
	degKey := s.jobs.cost.Predict(costKeyFor(s, "slow", "core", "snd"), pathSize(40001))
	wait = s.jobs.sched.PredictedWaitMs()
	deadlineMs := int(wait+degKey.Ms/4) + 1
	deg, resp := submitTenantJob(t, ts.URL, "t2", deadlineMs, jobRequest{Graph: "slow", Decomposition: "core", Algorithm: "snd"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("degraded submit: status %d (deadline %dms, wait %.1fms, pred %.1fms)",
			resp.StatusCode, deadlineMs, wait, degKey.Ms)
	}
	if !deg.Degraded || deg.MaxSweeps < 1 || deg.State != JobQueued {
		t.Fatalf("degraded view: %+v", deg)
	}
	if deg.QueuePosition != 1 {
		t.Fatalf("degraded job queue position = %d, want 1 (only queued job of t2)", deg.QueuePosition)
	}

	// Free the worker; the degraded job must run its budget and answer
	// approximately (converged=false), never be shed.
	deleteJob(t, ts.URL, blocker.ID, http.StatusAccepted)
	if v := waitForJob(t, ts.URL, blocker.ID); v.State != JobCancelled {
		t.Fatalf("blocker ended %s", v.State)
	}
	final := waitForJob(t, ts.URL, deg.ID)
	if final.State != JobDone || !final.Degraded || final.Converged {
		t.Fatalf("degraded job ended %+v, want done, degraded, unconverged", final)
	}
	if final.Sweeps == 0 || final.Sweeps > deg.MaxSweeps {
		t.Fatalf("degraded job ran %d sweeps, budget %d", final.Sweeps, deg.MaxSweeps)
	}

	// /stats reconciles every outcome exactly.
	st := getStats(t, ts.URL)
	if st.Jobs.Submitted.Load() != 9 || st.Jobs.Done.Load() != 2 || st.Jobs.Cancelled.Load() != 1 ||
		st.Jobs.Shed.Load() != 6 || st.Jobs.Degraded.Load() != 1 || st.Jobs.Queued != 0 || st.Jobs.Running != 0 {
		t.Fatalf("jobs stats do not reconcile: %+v", jsonString(&st.Jobs))
	}
	// Per-request cache accounting: train, blocker and the degraded job
	// resolved (shed jobs were never admitted and resolve nothing).
	if st.Cache.Lookups != 3 || st.Cache.Hits.Load()+st.Cache.Misses.Load() != st.Cache.Lookups {
		t.Fatalf("cache accounting: %+v", jsonString(&st.Cache))
	}
	perTenant := st.Scheduler.PerTenant
	for tenant, want := range map[string]sched.TenantStats{
		"default": {Admitted: 1, Weight: 1},
		"t1":      {Admitted: 1, Shed: 2, Weight: 1},
		"t2":      {Admitted: 1, Shed: 2, Degraded: 1, Weight: 1},
		"t3":      {Shed: 2, Weight: 1},
	} {
		got, ok := perTenant[tenant]
		if !ok {
			t.Fatalf("tenant %s missing from scheduler stats: %+v", tenant, perTenant)
		}
		if got != want {
			t.Fatalf("tenant %s stats = %+v, want %+v", tenant, got, want)
		}
	}
	var shedSum int64
	for _, ts := range perTenant {
		shedSum += ts.Shed
	}
	if shedSum != st.Jobs.Shed.Load() {
		t.Fatalf("per-tenant shed sum %d != jobs.shed %d", shedSum, st.Jobs.Shed.Load())
	}
	if st.Scheduler.CostModel.Misses == 0 || st.Scheduler.CostModel.MeanAbsErrPct < 0 {
		t.Fatalf("cost model stats: %+v", st.Scheduler.CostModel)
	}
}

// TestCancelQueuedReleasesSlot pins the DELETE-on-queued fix: cancelling
// a queued job releases its scheduler slot immediately — jobs.queued
// drops on the spot and a previously-rejected submission is admitted
// without waiting for a worker to drain the tombstone.
func TestCancelQueuedReleasesSlot(t *testing.T) {
	ts := testServer(t, Config{Workers: 1, QueueDepth: 2})
	uploadPath(t, ts.URL, "slow", 40001)
	uploadPath(t, ts.URL, "tiny", 51)

	blocker, _ := submitTenantJob(t, ts.URL, "", 0, jobRequest{Graph: "slow", Decomposition: "core", Algorithm: "snd"})
	waitRunning(t, ts.URL, blocker.ID)

	// Fill the queue (distinct sweep budgets keep the cache keys, and so
	// the computations, distinct).
	q1, resp := submitTenantJob(t, ts.URL, "", 0, jobRequest{Graph: "tiny", Decomposition: "core", Algorithm: "snd", MaxSweeps: 101})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("q1: status %d", resp.StatusCode)
	}
	q2, resp := submitTenantJob(t, ts.URL, "", 0, jobRequest{Graph: "tiny", Decomposition: "core", Algorithm: "snd", MaxSweeps: 102})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("q2: status %d", resp.StatusCode)
	}
	if st := getStats(t, ts.URL); st.Jobs.Queued != 2 {
		t.Fatalf("queued = %d, want 2", st.Jobs.Queued)
	}
	// The queue is full: one more is rejected.
	if _, resp := submitTenantJob(t, ts.URL, "", 0, jobRequest{Graph: "tiny", Decomposition: "core", Algorithm: "snd", MaxSweeps: 103}); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}

	// Cancel one queued job: the accounting must release immediately, with
	// the worker still pinned by the blocker.
	deleteJob(t, ts.URL, q1.ID, http.StatusOK)
	st := getStats(t, ts.URL)
	if st.Jobs.Queued != 1 {
		t.Fatalf("queued after cancel = %d, want 1 immediately", st.Jobs.Queued)
	}
	var schedQueued int
	for _, tv := range st.Scheduler.PerTenant {
		schedQueued += tv.Queued
	}
	if schedQueued != 1 {
		t.Fatalf("scheduler queued after cancel = %d, want 1 immediately", schedQueued)
	}
	// The freed slot admits a new job on the spot.
	q4, resp := submitTenantJob(t, ts.URL, "", 0, jobRequest{Graph: "tiny", Decomposition: "core", Algorithm: "snd", MaxSweeps: 104})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit into freed slot: status %d, want 202", resp.StatusCode)
	}

	// Drain: unblock the worker and let the queue finish.
	deleteJob(t, ts.URL, blocker.ID, http.StatusAccepted)
	waitForJob(t, ts.URL, blocker.ID)
	if v := waitForJob(t, ts.URL, q2.ID); v.State != JobDone {
		t.Fatalf("q2 ended %s", v.State)
	}
	if v := waitForJob(t, ts.URL, q4.ID); v.State != JobDone {
		t.Fatalf("q4 ended %s", v.State)
	}

	st = getStats(t, ts.URL)
	if st.Jobs.Cancelled.Load() != 2 || st.Jobs.Done.Load() != 2 || st.Jobs.Queued != 0 {
		t.Fatalf("final stats: %+v", jsonString(&st.Jobs))
	}
	// Every admitted request resolved exactly one hit or miss, cancelled
	// ones included: blocker, q1, q2 and q4 (the rejected submission was
	// never admitted and resolves nothing).
	if st.Cache.Hits.Load()+st.Cache.Misses.Load() != st.Cache.Lookups || st.Cache.Lookups != 4 {
		t.Fatalf("cache accounting: %+v", jsonString(&st.Cache))
	}
}

// costKeyFor builds the cost-model key the server would use for a job on
// the graph's current version.
func costKeyFor(s *Server, graph, dec, alg string) sched.CostKey {
	e, ok := s.reg.get(graph)
	if !ok {
		panic(fmt.Sprintf("unknown graph %q", graph))
	}
	return sched.CostKey{Graph: e.name, Version: e.version, Dec: dec, Alg: alg}
}

// pathSize is n+m for the uploadPath fixture (an n-vertex path has n-1
// edges).
func pathSize(n int) int64 { return int64(n + n - 1) }
