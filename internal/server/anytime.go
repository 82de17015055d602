package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"nucleus/internal/localhi"
)

// Anytime serving: the HTTP surface of the paper's headline property.
// Theorem 1 makes every intermediate τ of a local decomposition a valid,
// monotonically tightening upper bound on κ, so a running job has useful
// partial results after every sweep. This file exposes them:
//
//   - GET  /jobs/{id}/progress — poll the freshest τ snapshot metrics;
//   - GET  /jobs/{id}/stream   — server-sent events, one per sweep;
//   - DELETE /jobs/{id}        — cooperative cancellation;
//   - GET  /graphs/{name}/decompose — synchronous decomposition under a
//     sweep budget (?maxSweeps=) and/or wall-clock deadline (?maxMs=),
//     returning the current τ bound with approximate:true when the run
//     did not converge in budget.
//
// See docs/ANYTIME.md for the model and docs/API.md for the endpoints.

// progressSnapshotView is the JSON shape of one anytime progress
// observation (a localhi.Snapshot, or a synthesized equivalent for
// results that never had a live publisher).
type progressSnapshotView struct {
	// Sweep is the 1-based sweep the snapshot was taken after.
	Sweep int `json:"sweep"`
	Cells int `json:"cells"`
	// MaxTau upper-bounds the largest κ and never rises across snapshots.
	MaxTau int32 `json:"maxTau"`
	// TauSum is the scalar progress measure: monotonically non-increasing,
	// stationary exactly at κ.
	TauSum int64 `json:"tauSum"`
	// Updates is the number of τ decrements in this sweep; UpdateRate is
	// Updates/Cells and FractionStable its complement — the ground-truth-
	// free convergence signals (§1.2): the rate decays to 0 as τ → κ.
	Updates        int64   `json:"updates"`
	UpdateRate     float64 `json:"updateRate"`
	FractionStable float64 `json:"fractionStable"`
	Converged      bool    `json:"converged"`
	Final          bool    `json:"final"`
	ElapsedMs      float64 `json:"elapsedMs"`
}

func snapView(s *localhi.Snapshot) progressSnapshotView {
	return progressSnapshotView{
		Sweep:          s.Sweep,
		Cells:          len(s.Tau),
		MaxTau:         s.MaxTau,
		TauSum:         s.TauSum,
		Updates:        s.Updates,
		UpdateRate:     s.UpdateRate,
		FractionStable: s.FractionStable,
		Converged:      s.Converged,
		Final:          s.Final,
		ElapsedMs:      float64(s.Elapsed) / float64(time.Millisecond),
	}
}

// synthSnapshotView builds the terminal snapshot for a result that had
// no live publisher (peel runs, cache hits, publishing disabled).
func synthSnapshotView(res *decompResult, durationMs float64) progressSnapshotView {
	var sum int64
	for _, k := range res.Kappa {
		sum += int64(k)
	}
	v := progressSnapshotView{
		Sweep:     res.Sweeps,
		Cells:     len(res.Kappa),
		MaxTau:    res.MaxKappa,
		TauSum:    sum,
		Updates:   res.LastSweepUpdates,
		Converged: res.Converged,
		Final:     true,
		ElapsedMs: durationMs,
	}
	v.UpdateRate, v.FractionStable = res.stability()
	return v
}

// jobProgressResponse is the body of GET /jobs/{id}/progress and the
// payload of the SSE done event.
type jobProgressResponse struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Cached bool     `json:"cached"`
	Error  string   `json:"error,omitempty"`
	// Approximate is true while the freshest τ is an uncertified upper
	// bound; it flips to false only once convergence is certified.
	Approximate bool `json:"approximate"`
	// Snapshot is the freshest progress observation; absent before the
	// first sweep of a queued/just-started job.
	Snapshot *progressSnapshotView `json:"snapshot,omitempty"`
}

func (j *job) stateNow() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (s *Server) jobProgress(j *job) jobProgressResponse {
	v := viewJob(j)
	out := jobProgressResponse{ID: v.ID, State: v.State, Cached: v.Cached, Error: v.Error, Approximate: true}
	if p := j.progress(); p != nil {
		if snap := p.Latest(); snap != nil {
			sv := snapView(snap)
			out.Snapshot = &sv
			out.Approximate = !snap.Converged
			return out
		}
	}
	// No published snapshot (queued, peel, cache hit, or publishing
	// disabled): synthesize the terminal view from the stored result.
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	if res != nil {
		sv := synthSnapshotView(res, v.DurationMS)
		out.Snapshot = &sv
		out.Approximate = !res.Converged
	}
	return out
}

func (s *Server) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.jobProgress(j))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	running, err := s.jobs.cancel(j)
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	status := http.StatusOK // queued: cancelled on the spot
	if running {
		// Cooperative: the engine observes the flag at its next sweep
		// boundary; poll GET /jobs/{id} for the transition to cancelled.
		status = http.StatusAccepted
	}
	writeJSON(w, status, viewJob(j))
}

// writeSSEEvent emits one server-sent event with a JSON payload.
func writeSSEEvent(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte("{}")
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

// terminal reports whether a job state is final.
func terminal(st JobState) bool {
	return st == JobDone || st == JobFailed || st == JobCancelled || st == JobShed
}

// handleJobStream streams a job's anytime progress as server-sent
// events: one `progress` event per published sweep snapshot (drop-oldest
// under a slow client, so the stream always shows the freshest state)
// followed by a single `done` event carrying the terminal state and
// final snapshot. The connection closes after `done` or when the client
// disconnects.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	s.stats.Anytime.Streams.Add(1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // keep reverse proxies from buffering the feed
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()

	var last *localhi.Progress
	for {
		// Wait for a publisher (the job may still be queued) or a terminal
		// state (cache hits and peel jobs never get one).
		var prog *localhi.Progress
		for {
			prog = j.progress()
			if (prog != nil && prog != last) || terminal(j.stateNow()) {
				break
			}
			select {
			case <-ctx.Done():
				return
			// 25ms keeps the wait for a queued job's publisher cheap (40
			// wakeups/s per open stream) while adding negligible latency
			// to the first progress event.
			case <-time.After(25 * time.Millisecond):
			}
		}
		if prog == nil || prog == last {
			break // terminal without (new) progress: emit done below
		}
		last = prog
		ch, cancel := prog.Subscribe(64)
	recv:
		for {
			select {
			case <-ctx.Done():
				cancel()
				return
			case snap, ok := <-ch:
				if !ok {
					break recv
				}
				if snap.Final {
					// The final snapshot travels in the done event, where
					// it is paired with the job's terminal state.
					continue
				}
				writeSSEEvent(w, "progress", snapView(snap))
				fl.Flush()
			}
		}
		cancel()
		// The publisher finished, but if this job had coalesced onto a
		// run that was cancelled by its owner, the computation restarts
		// under a fresh publisher — loop and re-attach instead of
		// reporting a non-terminal "done".
	}

	// Give the worker a moment to publish the terminal job state (it is
	// set just after the engine returns), then report it.
	deadline := time.Now().Add(5 * time.Second)
	for !terminal(j.stateNow()) && time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return
		case <-time.After(5 * time.Millisecond):
		}
	}
	writeSSEEvent(w, "done", s.jobProgress(j))
	fl.Flush()
}

// ---------------------------------------------------------------------------
// Budgeted synchronous decomposition.

// convergenceStatsView reports how settled a (possibly partial) run was
// when it returned.
type convergenceStatsView struct {
	// Updates is the total τ decrements the run applied;
	// LastSweepUpdates the decrements of its final sweep alone.
	Updates          int64 `json:"updates"`
	LastSweepUpdates int64 `json:"lastSweepUpdates"`
	// UpdateRate is LastSweepUpdates/Cells; FractionStable its
	// complement. An exact run always ends at rate 0 / stable 1.
	UpdateRate     float64 `json:"updateRate"`
	FractionStable float64 `json:"fractionStable"`
}

// accuracyView quantifies a partial τ against a cached converged κ of
// the same graph version and decomposition — only available when some
// earlier request already paid for the exact result.
type accuracyView struct {
	// MaxError is the largest τ−κ over all cells (0 means τ is already
	// exact even though uncertified); MeanError the average.
	MaxError  int32   `json:"maxError"`
	MeanError float64 `json:"meanError"`
	// ExactFraction is the fraction of cells whose τ equals κ.
	ExactFraction float64 `json:"exactFraction"`
}

// decomposeView is GET /graphs/{name}/decompose's body up to its tail: then
// histogram[k], the cells with τ exactly k, and with ?tau=true the τ array.
type decomposeView struct {
	Graph         string `json:"graph"`
	Version       uint64 `json:"version"`
	Decomposition string `json:"decomposition"`
	Algorithm     string `json:"algorithm"`
	MaxSweeps     int    `json:"maxSweeps"`
	MaxMs         int    `json:"maxMs"`
	Cells         int    `json:"cells"`
	// MaxTau is the largest τ value: for a converged run, the largest κ.
	MaxTau    int32 `json:"maxTau"`
	Converged bool  `json:"converged"`
	// Approximate marks an uncertified result: the returned τ (and
	// histogram) upper-bound the exact κ pointwise but may still shrink.
	Approximate bool `json:"approximate"`
	// StoppedBy is what ended a non-converged run: "deadline" (maxMs) or
	// "sweeps" (maxSweeps); empty for converged runs.
	StoppedBy   string               `json:"stoppedBy,omitempty"`
	Sweeps      int                  `json:"sweeps"`
	Iterations  int                  `json:"iterations"`
	DurationMs  float64              `json:"durationMs"`
	Convergence convergenceStatsView `json:"convergence"`
	// Accuracy compares the partial τ to a cached converged κ when one
	// exists for this graph version; absent otherwise.
	Accuracy *accuracyView `json:"accuracy,omitempty"`
}

// queryIntAny reads the first present query parameter among names.
func queryIntAny(r *http.Request, def int, names ...string) (int, error) {
	for _, n := range names {
		if r.URL.Query().Get(n) != "" {
			return queryInt(r, n, def)
		}
	}
	return def, nil
}

// handleDecompose is the budget-bounded synchronous decomposition: the
// caller trades exactness for a response-time guarantee via ?maxSweeps=
// (deterministic, cacheable) and/or ?maxMs= (wall-clock deadline,
// checked between sweeps, never cached). Without budgets it behaves like
// the other synchronous consumers: full decomposition through the cache.
func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	q, asked, ok := s.readQuery(w, r, "maxSweeps", "max_sweeps")
	if !ok {
		return
	}
	maxMs, err := queryIntAny(r, 0, "maxMs", "max_ms")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.stats.Anytime.BudgetedQueries.Add(1)

	start := time.Now()
	if maxMs > 0 {
		q.deadline = start.Add(time.Duration(maxMs) * time.Millisecond)
	}
	res, _, err := s.resolve(q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	stoppedBy := ""
	switch {
	case res.Stopped: // only this read's own deadline can have stopped its run
		stoppedBy = "deadline"
	case !res.Converged:
		stoppedBy = "sweeps"
	}

	n := len(res.Kappa)
	out := decomposeView{
		Graph:         q.entry.name,
		Version:       q.entry.version,
		Decomposition: q.dec,
		Algorithm:     q.alg,
		MaxSweeps:     max(asked, 0),
		MaxMs:         max(maxMs, 0),
		Cells:         n,
		MaxTau:        res.MaxKappa,
		Converged:     res.Converged,
		Approximate:   !res.Converged,
		StoppedBy:     stoppedBy,
		Sweeps:        res.Sweeps,
		Iterations:    res.Iterations,
		DurationMs:    float64(time.Since(start)) / float64(time.Millisecond),
		Convergence: convergenceStatsView{
			Updates:          res.Updates,
			LastSweepUpdates: res.LastSweepUpdates,
		},
	}
	out.Convergence.UpdateRate, out.Convergence.FractionStable = res.stability()
	if !res.Converged {
		if base := s.convergedResult(q.entry, q.dec); base != nil && len(base.Kappa) == n && n > 0 {
			acc := &accuracyView{}
			var sum int64
			exact := 0
			for c, tau := range res.Kappa {
				d := tau - base.Kappa[c]
				if d > acc.MaxError {
					acc.MaxError = d
				}
				sum += int64(d)
				if d == 0 {
					exact++
				}
			}
			acc.MeanError = float64(sum) / float64(n)
			acc.ExactFraction = float64(exact) / float64(n)
			out.Accuracy = acc
		}
	}
	cells := ""
	if v := r.URL.Query(); v.Get("tau") == "true" || v.Get("kappa") == "true" {
		cells = `,"tau":`
	}
	writeWithTail(w, out, res, cells)
}
