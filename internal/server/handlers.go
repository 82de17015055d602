package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	iquery "nucleus/internal/query"
)

// ---------------------------------------------------------------------------
// JSON plumbing.

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeStatus maps a write-pipeline error to its HTTP status; anything
// untyped is a store failure.
func writeStatus(err error) int {
	var oversize errOversize
	switch {
	case errors.Is(err, errUnknownGraph):
		return http.StatusNotFound
	case errors.As(err, &oversize):
		return http.StatusBadRequest
	case errors.Is(err, errReplaced):
		return http.StatusConflict
	}
	return http.StatusInternalServerError
}

// maxJSONBody caps JSON request bodies (jobs, generate, estimates); graph
// uploads have their own MaxUploadBytes limit.
const maxJSONBody = 8 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "JSON body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

func queryInt(r *http.Request, name string, def int) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("invalid %s=%q: want an integer", name, s)
	}
	return v, nil
}

// ---------------------------------------------------------------------------
// Health and stats.

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

type statsResponse struct {
	UptimeSeconds float64          `json:"uptimeSeconds"`
	Requests      int64            `json:"requests"`
	Graphs        int              `json:"graphs"`
	Workers       int              `json:"workers"`
	Jobs          jobsStats        `json:"jobs"`
	Scheduler     schedulerStats   `json:"scheduler"`
	Cache         cacheStats       `json:"cache"`
	Mutations     mutationStats    `json:"mutations"`
	Index         indexStats       `json:"index"`
	Anytime       anytimeStats     `json:"anytime"`
	Persistence   persistenceStats `json:"persistence"`
	Replication   replicationStats `json:"replication"`
}

// replicationStats reports the node's place in a replicated deployment
// (see docs/REPLICATION.md). On a replica the lag/pull fields mirror
// GET /replication/status; FencedWrites counts writes rejected by the
// generation fence and Promotions counts replica→primary transitions
// this process performed.
type replicationStats struct {
	Role       string `json:"role"`
	Generation uint64 `json:"generation"`
	MaxVersion uint64 `json:"maxVersion"`
	// Replica-only pull progress (zero values elsewhere).
	Primary            string  `json:"primary,omitempty"`
	LagVersions        int64   `json:"lagVersions"`
	LagMs              float64 `json:"lagMs"`
	Pulls              int64   `json:"pulls"`
	PullErrors         int64   `json:"pullErrors"`
	StalePulls         int64   `json:"stalePulls"`
	BytesPulled        int64   `json:"bytesPulled"`
	SnapshotsInstalled int64   `json:"snapshotsInstalled"`
	BatchesApplied     int64   `json:"batchesApplied"`
	DuplicatesSkipped  int64   `json:"duplicatesSkipped"`
	FencedWrites       int64   `json:"fencedWrites"`
	Promotions         int64   `json:"promotions"`
	LastError          string  `json:"lastError,omitempty"`
}

// replicationStats assembles the /stats replication section from the
// node status and the fence counters.
func (s *Server) replicationStats() replicationStats {
	ns := s.nodeStatus()
	return replicationStats{
		Role:               ns.Role,
		Generation:         ns.Generation,
		MaxVersion:         ns.MaxVersion,
		Primary:            ns.Primary,
		LagVersions:        ns.LagVersions,
		LagMs:              ns.LagMs,
		Pulls:              ns.Pulls,
		PullErrors:         ns.PullErrors,
		StalePulls:         ns.StalePulls,
		BytesPulled:        ns.BytesPulled,
		SnapshotsInstalled: ns.SnapshotsInstalled,
		BatchesApplied:     ns.BatchesApplied,
		DuplicatesSkipped:  ns.DuplicatesSkipped,
		FencedWrites:       s.fencedWrites.Load(),
		Promotions:         s.promotions.Load(),
		LastError:          ns.LastError,
	}
}

// schedulerStats reports the workload-aware dispatch layer (see
// internal/sched and docs/OPERATIONS.md). PredictedWaitMs is the cost
// model's estimate of how long a job submitted now would queue.
type schedulerStats struct {
	PredictedWaitMs float64                    `json:"predictedWaitMs"`
	PerTenant       map[string]tenantStatsView `json:"perTenant"`
	CostModel       costModelStatsView         `json:"costModel"`
}

// tenantStatsView is one tenant's cumulative admission outcomes plus its
// live queue occupancy. Admitted counts jobs accepted into the queue;
// Shed counts refusals (at admission or by dispatch-time deadline
// expiry); Degraded counts jobs re-budgeted to meet their deadline.
// Weight is the tenant's deficit-round-robin weight (-tenant-weight; 1
// unless configured higher).
type tenantStatsView struct {
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
	InFlight int   `json:"inFlight"`
	Queued   int   `json:"queued"`
	Weight   int   `json:"weight"`
}

// costModelStatsView reports the observed-cost model: how many
// (graph version, family, algorithm) keys it has learned, how its
// predictions split between learned (hits) and cold-prior (misses)
// answers, and its running mean absolute prediction error.
type costModelStatsView struct {
	Entries       int     `json:"entries"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Observations  int64   `json:"observations"`
	MeanAbsErrPct float64 `json:"meanAbsErrPct"`
}

// anytimeStats reports the anytime serving surface (see docs/ANYTIME.md).
// ProgressSnapshots counts copy-on-write τ snapshots published by
// completed runs; Streams counts GET /jobs/{id}/stream connections
// served; BudgetedQueries counts GET /graphs/{name}/decompose requests
// admitted, and DeadlineStops how many of their runs were ended by the
// ?maxMs= wall-clock deadline rather than by convergence or the sweep
// budget.
type anytimeStats struct {
	ProgressSnapshots int64 `json:"progressSnapshots"`
	Streams           int64 `json:"streams"`
	BudgetedQueries   int64 `json:"budgetedQueries"`
	DeadlineStops     int64 `json:"deadlineStops"`
}

// persistenceStats reports the durable store (see internal/store and
// docs/OPERATIONS.md). Snapshots counts full snapshot writes (uploads,
// generates and compactions); WALAppends/WALBytes count appended frames
// (batch + commit) and their bytes since start. Replays is the number of
// graphs recovered at startup and ReplayedBatches the committed WAL
// batches re-applied for them; Compactions counts WALs folded into fresh
// snapshots. Errors counts non-fatal persistence failures (logged; the
// server keeps serving from memory).
type persistenceStats struct {
	Enabled         bool  `json:"enabled"`
	Snapshots       int64 `json:"snapshots"`
	WALAppends      int64 `json:"walAppends"`
	WALBytes        int64 `json:"walBytes"`
	Replays         int64 `json:"replays"`
	ReplayedBatches int64 `json:"replayedBatches"`
	Compactions     int64 `json:"compactions"`
	Errors          int64 `json:"errors"`
}

// indexStats reports the per-(graph version, family) instance cache.
// Builds counts flat s-clique incidence indexes materialized; Reuses
// counts requests served by a memoized instance (no re-counting of
// triangles/4-cliques at all); Fallbacks counts instances constructed
// without a flat index (over budget, indexing disabled, or the core
// family, whose CSR adjacency needs none). Bytes is the total size of all
// indexes built since start (an upper bound on live index memory: dead
// graph versions release theirs with the entry).
type indexStats struct {
	Builds    int64 `json:"builds"`
	Reuses    int64 `json:"reuses"`
	Fallbacks int64 `json:"fallbacks"`
	Bytes     int64 `json:"bytes"`
}

type jobsStats struct {
	Submitted int64 `json:"submitted"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// Shed counts jobs refused by the admission policy or expired in the
	// queue (503 + Retry-After); Degraded counts jobs re-budgeted to a
	// computed maxSweeps so their deadline stayed feasible.
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
}

type cacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Lookups is hits + misses: the number of decomposition requests
	// resolved against the cache (per-request accounting — a coalesced
	// request counts as one hit).
	Lookups  int64 `json:"lookups"`
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
}

// mutationStats reports the mutation path and its warm-start savings.
type mutationStats struct {
	// Batches is the number of published edit batches; Applied/Ignored
	// count individual edits.
	Batches int64 `json:"batches"`
	Applied int64 `json:"applied"`
	Ignored int64 `json:"ignored"`
	// WarmRuns is the number of warm-started reconvergence runs seeded
	// from a previous version's κ; ColdRuns counts full decompositions
	// actually executed by the engines.
	WarmRuns int64 `json:"warmRuns"`
	ColdRuns int64 `json:"coldRuns"`
	// WarmSweeps is the total sweeps warm runs needed; SweepsSaved sums,
	// per warm run, the sweeps of the cold run it was seeded from minus
	// its own (0 when the seed came from peeling, which reports none).
	WarmSweeps  int64 `json:"warmSweeps"`
	SweepsSaved int64 `json:"sweepsSaved"`
}

// schedulerStats assembles the /stats scheduler section from the live
// dispatch queue and the cost model.
func (s *Server) schedulerStats() schedulerStats {
	st := s.jobs.sched.Stats()
	perTenant := make(map[string]tenantStatsView, len(st.PerTenant))
	for name, ts := range st.PerTenant {
		perTenant[name] = tenantStatsView{
			Admitted: ts.Admitted,
			Shed:     ts.Shed,
			Degraded: ts.Degraded,
			InFlight: ts.InFlight,
			Queued:   ts.Queued,
			Weight:   ts.Weight,
		}
	}
	cm := s.jobs.cost.Stats()
	return schedulerStats{
		PredictedWaitMs: s.jobs.sched.PredictedWaitMs(),
		PerTenant:       perTenant,
		CostModel: costModelStatsView{
			Entries:       cm.Entries,
			Hits:          cm.Hits,
			Misses:        cm.Misses,
			Observations:  cm.Observations,
			MeanAbsErrPct: cm.MeanAbsErrPct,
		},
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	queued, running := s.jobs.counts()
	hits, misses := s.cacheHits.Load(), s.cacheMisses.Load()
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Graphs:        s.reg.count(),
		Workers:       s.cfg.Workers,
		Jobs: jobsStats{
			Submitted: s.jobs.submitted.Load(),
			Queued:    queued,
			Running:   running,
			Done:      int(s.jobs.completed.Load()),
			Failed:    int(s.jobs.failed.Load()),
			Cancelled: s.jobs.cancelled.Load(),
			Shed:      s.jobs.shed.Load(),
			Degraded:  s.jobs.degraded.Load(),
		},
		Scheduler: s.schedulerStats(),
		Cache: cacheStats{
			Hits:     hits,
			Misses:   misses,
			Lookups:  hits + misses,
			Entries:  s.cache.len(),
			Capacity: s.cfg.CacheSize,
		},
		Mutations: mutationStats{
			Batches:     s.mutBatches.Load(),
			Applied:     s.mutApplied.Load(),
			Ignored:     s.mutIgnored.Load(),
			WarmRuns:    s.warmRuns.Load(),
			ColdRuns:    s.coldRuns.Load(),
			WarmSweeps:  s.warmSweeps.Load(),
			SweepsSaved: s.sweepsSaved.Load(),
		},
		Index: indexStats{
			Builds:    s.idxBuilds.Load(),
			Reuses:    s.idxReuses.Load(),
			Fallbacks: s.idxFallbacks.Load(),
			Bytes:     s.idxBytes.Load(),
		},
		Anytime: anytimeStats{
			ProgressSnapshots: s.progressSnaps.Load(),
			Streams:           s.sseStreams.Load(),
			BudgetedQueries:   s.budgetedQueries.Load(),
			DeadlineStops:     s.deadlineStops.Load(),
		},
		Persistence: persistenceStats{
			Enabled:         s.store.Durable(),
			Snapshots:       s.snapSaves.Load(),
			WALAppends:      s.walAppends.Load(),
			WALBytes:        s.walBytes.Load(),
			Replays:         s.replays.Load(),
			ReplayedBatches: s.replayedBatches.Load(),
			Compactions:     s.compactions.Load(),
			Errors:          s.persistErrors.Load(),
		},
		Replication: s.replicationStats(),
	})
}

// ---------------------------------------------------------------------------
// Graph registry.

type graphView struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	M    int64  `json:"m"`
	// Version is the registry version of this graph; edit batches and
	// re-uploads bump it (cached results are keyed by it).
	Version uint64 `json:"version"`
	// Mutations is the number of edit batches applied to reach this
	// version (0 for a fresh upload/generation).
	Mutations int       `json:"mutations"`
	Source    string    `json:"source"`
	CreatedAt time.Time `json:"createdAt"`
}

func viewGraph(e *graphEntry) graphView {
	return graphView{
		Name: e.name, N: e.g.N(), M: e.g.M(),
		Version: e.version, Mutations: e.mutations,
		Source: e.source, CreatedAt: e.created,
	}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	out := make([]graphView, len(entries))
	for i, e := range entries {
		out[i] = viewGraph(e)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request) {
	if !s.admitWrite(w, r) {
		return
	}
	name := r.PathValue("name")
	format := r.URL.Query().Get("format")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	g, err := readGraph(format, body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "upload exceeds the %d-byte limit", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "parsing %s upload: %v", orDefault(format, "edgelist"), err)
		return
	}
	s.registerGraph(w, name, "upload:"+orDefault(format, "edgelist"), g)
}

// registerGraph installs a parsed upload/generation and acknowledges it.
// A 201 means the graph survives a crash; a 500 means it was never visible
// and the graph it would have replaced (if any) is still served, its cache
// entries intact.
func (s *Server) registerGraph(w http.ResponseWriter, name, source string, g *graph.Graph) {
	e := &graphEntry{name: name, g: g, source: source, created: time.Now()}
	if _, err := s.installGraph(e, 0); err != nil {
		writeError(w, writeStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, viewGraph(e))
}

func (s *Server) handleGenerateGraph(w http.ResponseWriter, r *http.Request) {
	if !s.admitWrite(w, r) {
		return
	}
	name := r.PathValue("name")
	var req generateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	g, err := generate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.registerGraph(w, name, "generator:"+req.Generator, g)
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, viewGraph(e))
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	if !s.admitWrite(w, r) {
		return
	}
	if err := s.dropGraph(r.PathValue("name")); err != nil {
		writeError(w, writeStatus(err), "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// ---------------------------------------------------------------------------
// Jobs.

type jobView struct {
	ID            string `json:"id"`
	Graph         string `json:"graph"`
	Decomposition string `json:"decomposition"`
	Algorithm     string `json:"algorithm"`
	MaxSweeps     int    `json:"maxSweeps"`
	// Threads is the effective intra-job worker count: the request value,
	// defaulted to the server's -job-threads and clamped to the host.
	Threads     int       `json:"threads"`
	State       JobState  `json:"state"`
	Cached      bool      `json:"cached"`
	Error       string    `json:"error,omitempty"`
	SubmittedAt time.Time `json:"submittedAt"`
	// Scheduling facts: the submitting tenant, the requested relative
	// deadline (0 when none), the cost model's price for the admitted
	// run, and — while queued — the job's 1-based EDF rank within its
	// tenant's queue (0 otherwise). Degraded marks a job the admission
	// policy re-budgeted to meet its deadline; its result reports
	// converged=false like any sweep-bounded run.
	Tenant          string  `json:"tenant"`
	DeadlineMs      int     `json:"deadlineMs,omitempty"`
	PredictedCostMs float64 `json:"predictedCostMs"`
	QueuePosition   int     `json:"queuePosition,omitempty"`
	Degraded        bool    `json:"degraded"`
	// Result summary; meaningful (non-zero) once State is done. No
	// omitempty: clients rely on "converged": false being visible for
	// sweep-bounded approximate runs.
	Cells      int   `json:"cells"`
	MaxKappa   int32 `json:"maxKappa"`
	Converged  bool  `json:"converged"`
	Iterations int   `json:"iterations"`
	Sweeps     int   `json:"sweeps"`
	// DurationMS is wall time from start to finish (0 for cache hits).
	DurationMS float64 `json:"durationMs"`
}

func viewJob(j *job) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:              j.id,
		Graph:           j.q.entry.name,
		Decomposition:   j.q.dec,
		Algorithm:       j.q.alg,
		MaxSweeps:       j.q.maxSweeps,
		Threads:         j.q.threads,
		State:           j.state,
		Cached:          j.cached,
		Error:           j.errMsg,
		SubmittedAt:     j.submitted,
		Tenant:          j.tenant,
		DeadlineMs:      j.deadlineMs,
		PredictedCostMs: j.predictedMs,
		Degraded:        j.degraded,
	}
	if j.state == JobQueued {
		// Lock order j.mu → scheduler, matching cancel.
		v.QueuePosition = j.mgr.sched.Position(j.id)
	}
	if j.state == JobDone && j.result != nil {
		v.Cells = len(j.result.Kappa)
		v.MaxKappa = j.result.MaxKappa
		v.Converged = j.result.Converged
		v.Iterations = j.result.Iterations
		v.Sweeps = j.result.Sweeps
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		v.DurationMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
	}
	return v
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	deadlineMs, err := queryInt(r, "deadlineMs", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if deadlineMs < 0 {
		writeError(w, http.StatusBadRequest, "deadlineMs must be non-negative, got %d", deadlineMs)
		return
	}
	j, err := s.jobs.submit(req, r.Header.Get("X-Nucleus-Tenant"), deadlineMs)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, errQueueFull), errors.Is(err, errTenantQuota):
			status = http.StatusTooManyRequests
		case errors.Is(err, errUnknownGraph):
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	v := viewJob(j)
	if v.State == JobShed {
		// The admission policy refused the job: the deadline (or the
		// -max-queue-wait ceiling) cannot survive the predicted queue
		// wait. Retry-After estimates when the backlog will have drained.
		w.Header().Set("Retry-After", strconv.Itoa(s.jobs.retryAfterSec()))
		writeJSON(w, http.StatusServiceUnavailable, v)
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	out := make([]jobView, len(jobs))
	for i, j := range jobs {
		out[i] = viewJob(j)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, viewJob(j))
}

type jobResultResponse struct {
	jobView
	// Histogram[k] is the number of cells with κ index exactly k.
	Histogram []int64 `json:"histogram"`
	// Kappa is the full per-cell κ array; only with ?kappa=true.
	Kappa []int32 `json:"kappa,omitempty"`
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	v := viewJob(j)
	switch v.State {
	case JobDone:
	case JobFailed:
		writeError(w, http.StatusConflict, "job %s failed: %s", v.ID, v.Error)
		return
	case JobCancelled:
		writeError(w, http.StatusConflict, "job %s was cancelled; its partial result is on GET /jobs/%s/progress", v.ID, v.ID)
		return
	case JobShed:
		w.Header().Set("Retry-After", strconv.Itoa(s.jobs.retryAfterSec()))
		writeError(w, http.StatusServiceUnavailable, "job %s was shed: %s", v.ID, v.Error)
		return
	default:
		writeError(w, http.StatusConflict, "job %s is %s; poll GET /jobs/%s until done", v.ID, v.State, v.ID)
		return
	}
	j.mu.Lock()
	res := j.result
	j.mu.Unlock()
	out := jobResultResponse{jobView: v, Histogram: res.histogram()}
	if r.URL.Query().Get("kappa") == "true" {
		out.Kappa = res.Kappa
	}
	writeJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------------
// Query-driven estimation (synchronous).

type estimateCoreRequest struct {
	Graph string `json:"graph"`
	// Vertices are the query vertex ids.
	Vertices []uint32 `json:"vertices"`
	// Hops is the BFS radius of the local region; 0 means only the
	// queries themselves (τ = degree).
	Hops int `json:"hops"`
	// MaxSweeps bounds the restricted iterations; 0 runs the restricted
	// computation to convergence.
	MaxSweeps int `json:"maxSweeps"`
}

type estimateResponse struct {
	Graph string `json:"graph"`
	// Estimates[i] is the τ upper bound for the i-th query (−1 for a
	// truss query edge not present in the graph).
	Estimates []int32 `json:"estimates"`
	// ActiveCells is how many cells the restricted computation touched —
	// the cost measure of the paper's query-driven scenario.
	ActiveCells int `json:"activeCells"`
	Sweeps      int `json:"sweeps"`
}

func (s *Server) handleEstimateCore(w http.ResponseWriter, r *http.Request) {
	var req estimateCoreRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	e, ok := s.reg.get(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", req.Graph)
		return
	}
	if len(req.Vertices) == 0 {
		writeError(w, http.StatusBadRequest, "vertices must be non-empty")
		return
	}
	for _, v := range req.Vertices {
		if int(v) >= e.g.N() {
			writeError(w, http.StatusBadRequest, "vertex %d out of range (n=%d)", v, e.g.N())
			return
		}
	}
	s.acquireSync()
	defer s.releaseSync() // defer: an engine panic must not leak the slot
	est := iquery.CoreNumbersOn(s.instanceOf(e, "core"), e.g, req.Vertices, req.Hops, req.MaxSweeps)
	writeJSON(w, http.StatusOK, estimateResponse{
		Graph:       req.Graph,
		Estimates:   est.Tau,
		ActiveCells: est.ActiveCells,
		Sweeps:      est.Result.Sweeps,
	})
}

type estimateTrussRequest struct {
	Graph string `json:"graph"`
	// Edges are the query edges as [u, v] endpoint pairs.
	Edges     [][2]uint32 `json:"edges"`
	Hops      int         `json:"hops"`
	MaxSweeps int         `json:"maxSweeps"`
}

func (s *Server) handleEstimateTruss(w http.ResponseWriter, r *http.Request) {
	var req estimateTrussRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	e, ok := s.reg.get(req.Graph)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", req.Graph)
		return
	}
	if len(req.Edges) == 0 {
		writeError(w, http.StatusBadRequest, "edges must be non-empty")
		return
	}
	for _, ed := range req.Edges {
		if int(ed[0]) >= e.g.N() || int(ed[1]) >= e.g.N() {
			writeError(w, http.StatusBadRequest, "edge [%d %d] out of range (n=%d)", ed[0], ed[1], e.g.N())
			return
		}
	}
	s.acquireSync()
	defer s.releaseSync()
	est := iquery.TrussNumbersOn(s.instanceOf(e, "truss"), e.g, req.Edges, req.Hops, req.MaxSweeps)
	writeJSON(w, http.StatusOK, estimateResponse{
		Graph:       req.Graph,
		Estimates:   est.Tau,
		ActiveCells: est.ActiveCells,
		Sweeps:      est.Result.Sweeps,
	})
}

// ---------------------------------------------------------------------------
// Hierarchy, nuclei and densest subgraph (synchronous, cache-backed).

// readQuery builds the query of a GET /graphs/{name}/… read: the graph
// from the path, dec and alg from the query string, the sweep budget from
// the first present of budgetNames (asked is that budget as sent, for a
// response that echoes it). It answers 404 or 400 itself when ok is false.
func (s *Server) readQuery(w http.ResponseWriter, r *http.Request, budgetNames ...string) (q query, asked int, ok bool) {
	e, found := s.reg.get(r.PathValue("name"))
	if !found {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("name"))
		return q, 0, false
	}
	asked, err := queryIntAny(r, 0, budgetNames...)
	if err == nil {
		q, err = s.newQuery(e, r.URL.Query().Get("dec"), r.URL.Query().Get("alg"), asked, 0)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return q, 0, false
	}
	return q, asked, true
}

func (s *Server) handleHierarchy(w http.ResponseWriter, r *http.Request) {
	q, _, ok := s.readQuery(w, r, "maxSweeps")
	if !ok {
		return
	}
	res, _, err := s.resolve(q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	forest := hierarchy.Build(res.Inst, res.Kappa)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = forest.WriteJSON(w, q.entry.g)
}

type nucleusView struct {
	// Cells is the number of cells (vertices/edges/triangles) in the
	// nucleus.
	Cells int `json:"cells"`
	// Vertices is the nucleus vertex set, ascending.
	Vertices []uint32 `json:"vertices"`
}

type nucleiResponse struct {
	Graph         string        `json:"graph"`
	Decomposition string        `json:"decomposition"`
	K             int           `json:"k"`
	Nuclei        []nucleusView `json:"nuclei"`
}

func (s *Server) handleNuclei(w http.ResponseWriter, r *http.Request) {
	q, _, ok := s.readQuery(w, r, "maxSweeps")
	if !ok {
		return
	}
	k, err := queryInt(r, "k", 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if k < 0 || k > math.MaxInt32 {
		// κ indices are int32; a wider k would wrap when truncated below.
		writeError(w, http.StatusBadRequest, "k=%d out of range [0, %d]", k, math.MaxInt32)
		return
	}
	res, _, err := s.resolve(q)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	inst := res.Inst
	cellSets := hierarchy.KNucleusSubgraphs(inst, res.Kappa, int32(k))
	out := nucleiResponse{Graph: q.entry.name, Decomposition: q.dec, K: k, Nuclei: []nucleusView{}}
	for _, cells := range cellSets {
		out.Nuclei = append(out.Nuclei, nucleusView{
			Cells:    len(cells),
			Vertices: hierarchy.CellsToVertices(inst, cells),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type densestResponse struct {
	Graph         string   `json:"graph"`
	Method        string   `json:"method"`
	Vertices      []uint32 `json:"vertices"`
	Edges         int64    `json:"edges"`
	AverageDegree float64  `json:"averageDegree"`
	EdgeDensity   float64  `json:"edgeDensity"`
}

func (s *Server) handleDensest(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("name"))
		return
	}
	method := orDefault(r.URL.Query().Get("method"), "approx")
	if method != "approx" && method != "maxcore" {
		writeError(w, http.StatusBadRequest, "unknown method %q (want approx or maxcore)", method)
		return
	}
	s.acquireSync() // a memo miss runs a full graph peel
	defer s.releaseSync()
	res := e.densestFor(method)
	writeJSON(w, http.StatusOK, densestResponse{
		Graph:         e.name,
		Method:        method,
		Vertices:      res.Vertices,
		Edges:         res.Edges,
		AverageDegree: res.AverageDegree,
		EdgeDensity:   res.EdgeDensity,
	})
}
