package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	"nucleus/internal/nucleus"
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

// writeBody answers 200 with a JSON body made of parts, under a
// Content-Length of their sum, each part written as it is.
func writeBody(w http.ResponseWriter, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // the client's hang-up
		}
	}
}

// bodyEnd closes every body writeWithTail writes.
var bodyEnd = []byte("}\n")

// writeWithTail answers 200 with what writeJSON gives head plus two trailing
// fields, "histogram" and, when cellsField (`,"name":`) is set and the
// result has cells, the cell array. Only head is encoded per request; the
// histogram is appended to it from the result's memo, and the memo's cells
// are written as they are, never copied.
func writeWithTail(w http.ResponseWriter, head any, res *decompResult, cellsField string) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(head); err != nil {
		writeError(w, http.StatusInternalServerError, "encoding the response: %v", err)
		return
	}
	buf.Truncate(buf.Len() - len(bodyEnd))
	m := res.encoded()
	buf.WriteString(`,"histogram":`)
	buf.Write(m.histogram)
	var cells []byte
	if cellsField != "" && len(res.Kappa) > 0 { // omitempty
		buf.WriteString(cellsField)
		cells = m.cells
	}
	writeBody(w, buf.Bytes(), cells, bodyEnd)
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

func queryInt[T int | int64](r *http.Request, name string, def T) (T, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || int64(T(v)) != v {
		return 0, fmt.Errorf("invalid %s=%q: want an integer", name, s)
	}
	return T(v), nil
}

// ---------------------------------------------------------------------------
// Health (GET /stats and GET /metrics live in stats.go).

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
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
	dec, alg := j.q.dec.String(), j.q.alg.String() // fixed at submit: no lock
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:              j.id,
		Graph:           j.q.entry.name,
		Decomposition:   dec,
		Algorithm:       alg,
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

// handleJobResult answers the job's view with histogram[k], the number of
// cells with κ index exactly k, and with ?kappa=true the κ array.
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
	cells := ""
	if r.URL.Query().Get("kappa") == "true" {
		cells = `,"kappa":`
	}
	writeWithTail(w, v, res, cells)
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
	est := iquery.CoreNumbersOn(s.instanceOf(e, nucleus.FamilyCore), e.g, req.Vertices, req.Hops, req.MaxSweeps)
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
	est := iquery.TrussNumbersOn(s.instanceOf(e, nucleus.FamilyTruss), e.g, req.Edges, req.Hops, req.MaxSweeps)
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
	if err == nil {
		err = s.forestOf(q, res).err
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeBody(w, res.hier.body)
}

// forestOf returns the forest of a resolved κ and its /hierarchy body. The
// first read of the result derives them: single-flighted by the once, and
// under a slot of its own — resolve's is taken on a κ miss only.
func (s *Server) forestOf(q query, res *decompResult) *forestMemo {
	m := res.hier
	m.once.Do(func() {
		s.acquireSync()
		defer s.releaseSync()
		s.stats.Cache.ForestBuilds.Add(1)
		m.forest = hierarchy.Build(res.Inst, res.Kappa)
		var body bytes.Buffer
		m.err = m.forest.WriteJSON(&body, q.entry.g)
		m.body = body.Bytes()
	})
	return m
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
	forest := s.forestOf(q, res).forest
	out := nucleiResponse{Graph: q.entry.name, Decomposition: q.dec.String(), K: k, Nuclei: []nucleusView{}}
	for _, n := range forest.NucleiAt(int32(k)) {
		out.Nuclei = append(out.Nuclei, nucleusView{Cells: forest.SubtreeCells(n), Vertices: forest.Vertices(n)})
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
