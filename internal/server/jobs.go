package server

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"nucleus/internal/localhi"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/sched"
)

// JobState is the lifecycle state of a decomposition job:
// queued → running → done | failed | cancelled, with shed as a second
// terminal rejection state: a deadline-tagged job whose ?deadlineMs
// passed (or was predicted to pass) before a worker could start it.
// Cache hits jump straight to done; DELETE /jobs/{id} cancels a queued
// job immediately and a running one cooperatively (at its next sweep
// boundary).
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
	JobShed      JobState = "shed"
)

// defaultTenant is the tenant of requests without an X-Nucleus-Tenant
// header.
const defaultTenant = "default"

// jobRequest is the JSON body of POST /jobs.
type jobRequest struct {
	// Graph names a registered graph.
	Graph string `json:"graph"`
	// Decomposition is core, truss or n34 (aliases: 12, 23, 34).
	Decomposition string `json:"decomposition"`
	// Algorithm is and (default), snd or peel.
	Algorithm string `json:"algorithm"`
	// Threads is the in-job worker count, honored by every algorithm
	// (local sweeps and parallel peeling alike); 0 uses the server
	// default. The effective value is surfaced in the job status.
	Threads int `json:"threads"`
	// MaxSweeps bounds local iterations; 0 runs to convergence.
	MaxSweeps int `json:"maxSweeps"`
}

// job is one decomposition job. Mutable fields are guarded by mu.
type job struct {
	id  string
	mgr *jobManager
	// q is the job's read-pipeline query (read.go), fixed at submit. Its
	// threads is the effective intra-job worker count (request value, else
	// the server default, clamped to the host) surfaced in the job status;
	// the local algorithms split sweeps across that many workers, and peel
	// uses them only where s-cliques are found on the fly (peel.RunThreads).
	q query
	// Scheduler state, fixed at submit: the submitting tenant, the
	// requested relative deadline (0 = none), its absolute form, the cost
	// model's estimate for the admitted run, and the model inputs needed
	// to feed the completion back (size is n+m).
	tenant      string
	deadlineMs  int
	deadline    time.Time
	predictedMs float64
	costKey     sched.CostKey
	size        int64

	// cancel is the cooperative cancellation flag: DELETE /jobs/{id} sets
	// it, and the running decomposition polls it between sweeps (it is the
	// job's localhi Stop function). Atomic because the engine reads it off
	// the job lock.
	cancel atomic.Bool

	mu        sync.Mutex
	state     JobState
	errMsg    string
	cached    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    *decompResult
	// degraded marks a job the admission policy re-budgeted: its deadline
	// could not survive the predicted queue wait at full cost, so it was
	// admitted with a computed maxSweeps anytime budget instead of being
	// queued to fail.
	degraded bool
	// resolved marks the job's per-request cache accounting (exactly one
	// hit or miss per admitted request) as done or, once a worker took the
	// job, as resolve's to do. Cancel, shed and shutdown can race a
	// dispatch for a queued job; the flag keeps it exactly-once.
	resolved bool
	// prog is the progress publisher of the computation currently serving
	// this job (the owning flight's — shared when this job coalesced onto
	// another caller's run). Nil while queued, for peel jobs, for cache
	// hits, and when progress publishing is disabled.
	prog *localhi.Progress
}

// progress returns the job's current progress publisher, if any.
func (j *job) progress() *localhi.Progress {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.prog
}

// jobManager owns the workload-aware scheduler and the worker pool.
type jobManager struct {
	s  *Server
	wg sync.WaitGroup
	// sched is the dispatch queue: deficit-round-robin across tenants,
	// earliest-deadline-first within one, with per-tenant quotas and
	// dispatch-time shedding of expired jobs. cost is the observed-cost
	// model its admission decisions consume.
	sched *sched.Scheduler
	cost  *sched.CostModel

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for GET /jobs
	closed bool

	nextID atomic.Int64
}

func newJobManager(s *Server) *jobManager {
	cfg := s.cfg
	m := &jobManager{
		s:    s,
		jobs: make(map[string]*job),
		cost: sched.NewCostModel(0),
	}
	m.sched = sched.New(sched.Config{
		Workers:           cfg.Workers,
		MaxQueued:         cfg.QueueDepth,
		TenantMaxQueued:   cfg.TenantQueueDepth,
		TenantMaxInFlight: cfg.TenantInFlight,
		TenantWeights:     cfg.TenantWeights,
	}, sched.RealClock(), m.onShed)
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// errQueueFull reports a full job queue; handlers map it to 429.
var errQueueFull = fmt.Errorf("job queue is full")

// errTenantQuota reports a full per-tenant queue (other tenants may
// still have room); handlers map it to 429 like errQueueFull.
var errTenantQuota = fmt.Errorf("tenant queue quota is full")

// errUnknownGraph reports a job or a write naming an unregistered graph;
// handlers map it to 404.
var errUnknownGraph = fmt.Errorf("unknown graph")

func unknownGraph(name string) error { return fmt.Errorf("%w %q", errUnknownGraph, name) }

// submit validates the request, consults the cache, prices the job with
// the cost model, and runs the admission policy: complete immediately
// (cache hit), shed with 503 (deadline or -max-queue-wait already
// unmeetable — the returned job is in state shed, nil error), degrade to
// a computed anytime budget (deadline tight but not hopeless), or
// enqueue on the tenant-fair scheduler. tenant is the X-Nucleus-Tenant
// header (defaulted); deadlineMs is the ?deadlineMs query (0 = none).
func (m *jobManager) submit(req jobRequest, tenant string, deadlineMs int) (*job, error) {
	entry, known := m.s.reg.get(req.Graph)
	q, err := m.s.newQuery(entry, req.Decomposition, req.Algorithm, req.MaxSweeps, req.Threads)
	if err != nil {
		return nil, err
	}
	if !known {
		return nil, unknownGraph(req.Graph)
	}
	if tenant == "" {
		tenant = defaultTenant
	}

	j := &job{
		id:         fmt.Sprintf("j%d", m.nextID.Add(1)),
		mgr:        m,
		q:          q,
		tenant:     tenant,
		deadlineMs: deadlineMs,
		state:      JobQueued,
		submitted:  time.Now(),
	}
	j.q.pooled = true
	j.q.stop = j.cancel.Load // the job's cooperative stop signal
	j.q.onFlight = func(f *flight) {
		// Expose the (possibly shared) computation's live progress to the
		// /jobs/{id}/progress and /stream endpoints.
		j.mu.Lock()
		j.prog = f.prog
		j.mu.Unlock()
	}
	j.costKey = sched.CostKey{Graph: entry.name, Version: entry.version, Dec: q.dec, Alg: q.alg}
	j.size = int64(entry.g.N()) + entry.g.M()

	if m.finishIfCached(j) {
		return j, nil
	}
	// Not counted as a miss yet: whether this request was ultimately a hit
	// (the key got cached, or the run coalesced onto an in-flight
	// computation) or a miss (the worker computed it) is only known when
	// the job runs — resolve does the accounting there, keeping the
	// per-request invariant hits + misses == resolved requests.

	// Price the job: the full-run estimate, capped by the requested sweep
	// budget when that budget is the binding constraint.
	pred := m.cost.Predict(j.costKey, j.size)
	j.predictedMs = pred.Ms
	if q.maxSweeps > 0 && float64(q.maxSweeps) < pred.Sweeps {
		j.predictedMs = float64(q.maxSweeps) * pred.SweepMs
	}

	wait := m.sched.PredictedWaitMs()
	if deadlineMs > 0 {
		if wait >= float64(deadlineMs) {
			// The deadline cannot survive the queue: shed at submit.
			m.shedAtSubmit(j, fmt.Sprintf(
				"shed at admission: predicted queue wait %.0fms exceeds deadline %dms", wait, deadlineMs))
			return j, nil
		}
		if q.alg != "peel" && wait+j.predictedMs > float64(deadlineMs) {
			// The job can start before its deadline but not finish a full
			// run: degrade to the anytime budget that fits the slack
			// (PR 5 machinery), re-keying the cache slot for the budgeted
			// result.
			budget := int((float64(deadlineMs) - wait) / pred.SweepMs)
			if budget < 1 {
				budget = 1
			}
			if q.maxSweeps == 0 || budget < q.maxSweeps {
				j.q.maxSweeps = budget
				j.degraded = true
				j.predictedMs = float64(budget) * pred.SweepMs
				m.s.stats.Jobs.Degraded.Add(1)
				if m.finishIfCached(j) {
					return j, nil
				}
			}
		}
		if !j.degraded {
			// A degraded job is committed best-effort: its budget was sized
			// to the deadline at admission, so it queues without a dispatch
			// deadline — shedding it later would turn the client's accepted
			// approximation into a refusal.
			j.deadline = j.submitted.Add(time.Duration(deadlineMs) * time.Millisecond)
		}
	} else if maxWait := m.s.cfg.MaxQueueWait; maxWait > 0 && wait > float64(maxWait/time.Millisecond) {
		// Deadline-less overload guard: past the configured queue-wait
		// ceiling, reject with Retry-After instead of growing the queue.
		m.shedAtSubmit(j, fmt.Sprintf(
			"shed at admission: predicted queue wait %.0fms exceeds -max-queue-wait %v", wait, maxWait))
		return j, nil
	}

	it := &sched.Item{
		ID:          j.id,
		Tenant:      tenant,
		PredictedMs: j.predictedMs,
		Deadline:    j.deadline,
		Degraded:    j.degraded,
		Payload:     j,
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("server is shutting down")
	}
	if err := m.sched.Enqueue(it); err != nil {
		m.mu.Unlock()
		switch err {
		case sched.ErrTenantQuota:
			return nil, fmt.Errorf("%w (tenant %q)", errTenantQuota, tenant)
		default:
			// Global bound and the distinct-tenant cap both answer as a
			// full queue: retry later.
			return nil, errQueueFull
		}
	}
	m.trackLocked(j)
	m.mu.Unlock()
	m.s.stats.Jobs.Submitted.Add(1)
	return j, nil
}

// finishIfCached completes j on the spot when its cache key is already
// resolved, reporting whether it did.
func (m *jobManager) finishIfCached(j *job) bool {
	res, ok := m.s.lookup(j.q)
	if !ok {
		return false
	}
	m.s.account(served)
	j.resolved = true
	j.cached = true
	j.state = JobDone
	j.result = slimResult(res)
	j.finished = j.submitted
	m.track(j)
	m.s.stats.Jobs.Submitted.Add(1)
	m.s.stats.Jobs.Done.Add(1)
	m.prune()
	return true
}

// shedAtSubmit finalizes a job the admission policy refused: terminal
// state shed, tracked (so GET /jobs/{id} explains what happened and the
// per-tenant counters reconcile with observed 503s), but never admitted
// to the queue — like a 429, it does not resolve cache accounting.
func (m *jobManager) shedAtSubmit(j *job, msg string) {
	j.resolved = true
	j.state = JobShed
	j.errMsg = msg
	j.finished = j.submitted
	m.track(j)
	m.s.stats.Jobs.Submitted.Add(1)
	m.s.stats.Jobs.Shed.Add(1)
	m.sched.RecordShed(j.tenant)
	m.prune()
}

// retryAfterSec derives the Retry-After value for shed responses from
// the predicted time to drain the current backlog, floored at 1s.
func (m *jobManager) retryAfterSec() int {
	sec := int(math.Ceil(m.sched.DrainMs() / 1000))
	if sec < 1 {
		sec = 1
	}
	return sec
}

// onShed is the scheduler's dispatch-time shed callback: a queued item
// whose deadline expired before a worker could take it. Invoked without
// the scheduler lock.
func (m *jobManager) onShed(it *sched.Item) {
	j := it.Payload.(*job)
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobShed
		j.errMsg = "shed: deadline expired before a worker was available"
		j.finished = time.Now()
		m.s.stats.Jobs.Shed.Add(1)
	}
	// The job was admitted (counted toward submitted), so its deferred
	// cache accounting must resolve — as a miss, like a cancelled queued
	// job. resolveMissLocked is idempotent against a racing cancel.
	m.resolveMissLocked(j)
	j.mu.Unlock()
	m.prune()
}

// resolveMissLocked resolves the job's deferred per-request cache
// accounting as a miss, exactly once. Caller holds j.mu.
func (m *jobManager) resolveMissLocked(j *job) {
	if !j.resolved {
		j.resolved = true
		m.s.account(dropped)
	}
}

func (m *jobManager) track(j *job) {
	m.mu.Lock()
	m.trackLocked(j)
	m.mu.Unlock()
}

func (m *jobManager) trackLocked(j *job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
}

func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	return j, ok
}

func (m *jobManager) list() []*job {
	m.mu.Lock()
	out := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	m.mu.Unlock()
	return out
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		it, ok := m.sched.Next()
		if !ok {
			return
		}
		m.run(it)
	}
}

// cancel requests cancellation of a job. A queued job is cancelled
// immediately; a running job is cancelled cooperatively — its engine
// stops at the next sweep boundary, and the partial τ is retained for
// the progress endpoints. running reports whether the job was still
// in flight (so the handler answers 202 rather than 200).
func (m *jobManager) cancel(j *job) (running bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JobQueued:
		j.state = JobCancelled
		j.errMsg = "cancelled before start"
		j.finished = time.Now()
		m.s.stats.Jobs.Cancelled.Add(1)
		// Release the scheduler slot on the spot so the queue capacity is
		// reusable immediately, not after a worker drains the tombstone.
		// Lock order is j.mu → scheduler, here and in viewJob.
		if _, ok := m.sched.Remove(j.id); ok {
			// The item never reaches a worker: resolve the deferred cache
			// accounting here.
			m.resolveMissLocked(j)
		}
		// Remove can lose the race with a concurrent dispatch or shed of
		// the same item; run()/onShed then observes the cancelled state,
		// drains it, and resolves the accounting instead.
		return false, nil
	case JobRunning:
		j.cancel.Store(true)
		return true, nil
	}
	return false, fmt.Errorf("job %s is already %s", j.id, j.state)
}

func (m *jobManager) run(it *sched.Item) {
	j := it.Payload.(*job)
	// Done releases the dispatch slot (and the tenant's in-flight quota)
	// on every exit path.
	defer m.sched.Done(it)
	j.mu.Lock()
	if j.state != JobQueued {
		// Cancelled while queued (the cancel lost its Remove race to this
		// dispatch); the worker just drains it. Resolve the deferred cache
		// accounting so hits + misses still equals the number of admitted
		// requests.
		m.resolveMissLocked(j)
		j.mu.Unlock()
		m.prune()
		return
	}
	j.state = JobRunning
	j.started = time.Now()
	// From here resolve counts this request; shed, cancel and shutdown
	// only ever count a job that is still queued.
	j.resolved = true
	j.mu.Unlock()

	// shared covers both a post-submit cache fill and coalescing onto
	// another caller's run.
	res, shared, err := m.s.resolve(j.q)

	// Feed the cost model — full uncoalesced runs only. Shared results,
	// cancelled/stopped runs and unconverged budgeted runs measure
	// something other than the full cost of this key, and would teach the
	// admission policy the wrong price.
	if err == nil && !shared && !res.Stopped && (j.q.maxSweeps == 0 || res.Converged) {
		observedMs := float64(time.Since(j.started)) / float64(time.Millisecond)
		m.cost.Observe(j.costKey, j.size, j.predictedMs, observedMs, res.Sweeps, res.Updates)
	}

	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
		j.mu.Unlock()
		m.s.stats.Jobs.Failed.Add(1)
		m.prune()
		return
	}
	if res.Stopped || j.cancel.Load() {
		// res.Stopped: only this job's own cancel flag can stop its run
		// (coalesced flights whose owner stopped are retried by resolve),
		// so a stopped result means this job was cancelled
		// mid-run. The second clause covers a cancelled job that coalesced
		// onto (or raced the completion of) a run it could not stop: the
		// DELETE answered 202 promising a transition to cancelled, so
		// honor it even though a full result happens to exist. Either way
		// the partial/complete τ is kept: it is a valid upper bound and
		// the progress endpoints keep serving the final snapshot.
		j.state = JobCancelled
		j.errMsg = "cancelled while running"
		j.result = slimResult(res)
		j.mu.Unlock()
		m.s.stats.Jobs.Cancelled.Add(1)
		m.prune()
		return
	}
	j.state = JobDone
	j.result = slimResult(res)
	// The key became cached (or another caller computed it) between
	// submission and execution; surface that the worker did no work.
	j.cached = shared
	j.mu.Unlock()
	m.s.stats.Jobs.Done.Add(1)
	m.prune()
}

// slimResult strips the Inst reference and the forest for storage on a
// job: the history cap should bound κ-array memory, not pin s-clique
// indices (which live in the LRU cache and the per-graph memo instead).
// The tail memo stays shared: it encodes the same κ slice.
func slimResult(res *decompResult) *decompResult {
	slim := *res
	slim.Inst, slim.hier = nil, nil
	return &slim
}

// prune evicts the oldest finished jobs once the store exceeds the
// configured history cap, bounding memory in a long-running server (each
// done job pins its O(cells) κ array). Queued/running jobs are never
// evicted.
func (m *jobManager) prune() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.jobs) > m.s.cfg.JobHistory {
		evict := -1
		for i, id := range m.order {
			j := m.jobs[id]
			j.mu.Lock()
			st := j.state
			j.mu.Unlock()
			if st == JobDone || st == JobFailed || st == JobCancelled || st == JobShed {
				evict = i
				break
			}
		}
		if evict < 0 {
			return
		}
		delete(m.jobs, m.order[evict])
		m.order = append(m.order[:evict:evict], m.order[evict+1:]...)
	}
}

// close stops accepting submissions, fails still-queued jobs, and waits
// for running jobs to finish.
func (m *jobManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	for _, it := range m.sched.Close() {
		j := it.Payload.(*job)
		j.mu.Lock()
		if j.state == JobQueued {
			j.state = JobFailed
			j.errMsg = "server shut down before the job started"
			j.finished = time.Now()
			m.s.stats.Jobs.Failed.Add(1)
		}
		// Resolve the deferred accounting even on shutdown, so the
		// hits+misses invariant holds across Close.
		m.resolveMissLocked(j)
		j.mu.Unlock()
	}
	m.wg.Wait()
}

// counts returns the live queued/running totals by scanning retained
// jobs. Done/failed totals come from the cumulative atomics instead, so
// they survive history pruning.
func (m *jobManager) counts() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case JobQueued:
			queued++
		case JobRunning:
			running++
		}
	}
	return
}

// ---------------------------------------------------------------------------
// Decomposition engine glue.

// runDecomposition executes one decomposition with the selected engine,
// reusing the entry's memoized (possibly flat-indexed) instance. prog
// (anytime progress publishing) and stop (cooperative cancellation /
// deadlines) apply to the local algorithms only; peeling is all-or-nothing
// and ignores both.
func (s *Server) runDecomposition(q query, prog *localhi.Progress, stop func() bool) (res *decompResult, err error) {
	// A decomposition touches every cell of a user-supplied graph;
	// convert engine panics (e.g. from a hostile input that slipped past
	// parsing) into failed jobs instead of crashing the server.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("decomposition panicked: %v", r)
		}
	}()
	inst := s.instanceOf(q.entry, q.dec)
	switch q.alg {
	case "peel":
		pr := peel.RunThreads(inst, q.threads)
		return &decompResult{Kappa: pr.Kappa, MaxKappa: pr.MaxKappa, Converged: true, Inst: inst, hier: new(forestMemo), tail: new(tailMemo)}, nil
	case "snd":
		lr := localhi.Snd(inst, localhi.Options{Threads: q.threads, MaxSweeps: q.maxSweeps, Progress: prog, Stop: stop})
		return localResult(lr, inst), nil
	case "and":
		lr := localhi.And(inst, localhi.Options{Threads: q.threads, MaxSweeps: q.maxSweeps, Notification: true, Progress: prog, Stop: stop})
		return localResult(lr, inst), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", q.alg)
}

func localResult(lr *localhi.Result, inst inucleus.Instance) *decompResult {
	res := &decompResult{
		Kappa:      lr.Tau,
		Converged:  lr.Converged,
		Stopped:    lr.Stopped,
		Iterations: lr.Iterations,
		Sweeps:     lr.Sweeps,
		Updates:    lr.Updates,
		MaxKappa:   maxOf(lr.Tau),
		Inst:       inst,
		hier:       new(forestMemo),
		tail:       new(tailMemo),
	}
	if n := len(lr.SweepUpdates); n > 0 {
		res.LastSweepUpdates = lr.SweepUpdates[n-1]
	}
	return res
}
