package server

import (
	"net/http"
	"time"

	"nucleus/internal/promtext"
	"nucleus/internal/replica"
	"nucleus/internal/sched"
)

// statsResponse is the node's one stats document: the GET /stats body
// and, as Server.stats, the storage of every counter in it. A field's
// tags are its whole declaration — `json` the /stats key, `prom` and
// `help` the /metrics series promtext.Writer.Struct derives — so a new
// counter is one tagged field here, its Add at the event, and a row in
// docs/OPERATIONS.md's metrics reference (TestDocsMetricsConsistency).
// Cumulative fields are Counters, incremented in place by their owners;
// the plain fields are gauges that statsSnapshot fills per read.
type statsResponse struct {
	UptimeSeconds float64          `json:"uptimeSeconds" prom:"nucleusd_uptime_seconds" help:"Seconds since the server started."`
	Requests      promtext.Counter `json:"requests" prom:"nucleusd_requests_total" help:"HTTP requests received."`
	Graphs        int              `json:"graphs" prom:"nucleusd_graphs" help:"Graphs currently registered."`
	Workers       int              `json:"workers" prom:"nucleusd_workers" help:"Decomposition worker pool size."`
	Jobs          jobsStats        `json:"jobs"`
	Scheduler     schedulerStats   `json:"scheduler"`
	Cache         cacheStats       `json:"cache"`
	Mutations     mutationStats    `json:"mutations"`
	Index         indexStats       `json:"index"`
	Anytime       anytimeStats     `json:"anytime"`
	Persistence   persistenceStats `json:"persistence"`
	Replication   replicationStats `json:"replication"`
}

type jobsStats struct {
	Submitted promtext.Counter `json:"submitted" prom:"nucleusd_jobs_submitted_total" help:"Jobs submitted."`
	Queued    int              `json:"queued" prom:"nucleusd_jobs_queued" help:"Jobs currently queued."`
	Running   int              `json:"running" prom:"nucleusd_jobs_running" help:"Jobs currently running."`
	Done      promtext.Counter `json:"done" prom:"nucleusd_jobs_done_total" help:"Jobs completed."`
	Failed    promtext.Counter `json:"failed" prom:"nucleusd_jobs_failed_total" help:"Jobs failed."`
	Cancelled promtext.Counter `json:"cancelled" prom:"nucleusd_jobs_cancelled_total" help:"Jobs cancelled."`
	// Shed counts jobs refused by the admission policy or expired in the
	// queue (503 + Retry-After); Degraded counts jobs re-budgeted to a
	// computed maxSweeps so their deadline stayed feasible.
	Shed     promtext.Counter `json:"shed" prom:"nucleusd_jobs_shed_total" help:"Jobs shed by the admission policy or deadline expiry."`
	Degraded promtext.Counter `json:"degraded" prom:"nucleusd_jobs_degraded_total" help:"Jobs re-budgeted to meet their deadline."`
}

// schedulerStats reports the workload-aware dispatch layer (see
// internal/sched and docs/OPERATIONS.md). PredictedWaitMs is the cost
// model's estimate of how long a job submitted now would queue.
// PerTenant has no prom tags: handleMetrics writes its six fields as
// families labeled by tenant.
type schedulerStats struct {
	PredictedWaitMs float64                      `json:"predictedWaitMs" prom:"nucleusd_sched_predicted_wait_ms" help:"Cost model's queue-wait estimate for a job submitted now."`
	PerTenant       map[string]sched.TenantStats `json:"perTenant"`
	CostModel       sched.CostModelStats         `json:"costModel"`
}

// cacheStats follows per-request accounting: every admitted
// decomposition request (async job or synchronous κ consumer) increments
// exactly one of Hits and Misses — a hit when it was served from the
// cache or coalesced onto an in-flight computation, a miss when it paid
// for the computation — so Lookups, their sum, is the number of requests
// resolved (and has no series of its own). ForestBuilds counts the
// /hierarchy and /nuclei reads that had to derive their result's forest.
type cacheStats struct {
	Hits         promtext.Counter `json:"hits" prom:"nucleusd_cache_hits_total" help:"Decomposition cache hits (including coalesced requests)."`
	Misses       promtext.Counter `json:"misses" prom:"nucleusd_cache_misses_total" help:"Decomposition cache misses."`
	Lookups      int64            `json:"lookups"`
	Entries      int              `json:"entries" prom:"nucleusd_cache_entries" help:"Decomposition cache entries."`
	Capacity     int              `json:"capacity" prom:"nucleusd_cache_capacity" help:"Decomposition cache capacity, in entries."`
	ForestBuilds promtext.Counter `json:"forestBuilds" prom:"nucleusd_cache_forest_builds_total" help:"Nucleus forests derived from a cached decomposition."`
}

// mutationStats reports the mutation path and its warm-start savings.
type mutationStats struct {
	// Batches is the number of published edit batches; Applied/Ignored
	// count individual edits (ignored: dupes, absent, self-loops, out of
	// range).
	Batches promtext.Counter `json:"batches" prom:"nucleusd_mutation_batches_total" help:"Edge-mutation batches published."`
	Applied promtext.Counter `json:"applied" prom:"nucleusd_mutation_edits_applied_total" help:"Edge edits applied."`
	Ignored promtext.Counter `json:"ignored" prom:"nucleusd_mutation_edits_ignored_total" help:"No-op edge edits."`
	// WarmRuns is the number of decompositions installed for a new version
	// without a cold run — core from the maintained κ as it stands, truss
	// by a warm-started reconvergence from the previous version's κ;
	// ColdRuns counts full decompositions actually executed by the engines.
	WarmRuns promtext.Counter `json:"warmRuns" prom:"nucleusd_warm_runs_total" help:"Decompositions installed for a new version without a cold run."`
	ColdRuns promtext.Counter `json:"coldRuns" prom:"nucleusd_cold_runs_total" help:"Cold full decompositions executed."`
	// WarmSweeps is the total sweeps those installs needed (core: none;
	// truss: its warm run's); SweepsSaved sums, per install, the sweeps of
	// the previous version's cached run minus its own (0 when that run was
	// a peel or itself an install, which report none).
	WarmSweeps  promtext.Counter `json:"warmSweeps" prom:"nucleusd_warm_sweeps_total" help:"Sweeps spent installing decompositions without a cold run (truss warm runs; core spends none)."`
	SweepsSaved promtext.Counter `json:"sweepsSaved" prom:"nucleusd_sweeps_saved_total" help:"Sweeps saved by such installs against the previous version's cached run."`
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
	Builds    promtext.Counter `json:"builds" prom:"nucleusd_index_builds_total" help:"Flat s-clique indexes built."`
	Reuses    promtext.Counter `json:"reuses" prom:"nucleusd_index_reuses_total" help:"Instance memo reuses."`
	Fallbacks promtext.Counter `json:"fallbacks" prom:"nucleusd_index_fallbacks_total" help:"Instances built without a flat index."`
	Bytes     promtext.Counter `json:"bytes" prom:"nucleusd_index_bytes_total" help:"Bytes of flat indexes built."`
}

// anytimeStats reports the anytime serving surface (see docs/ANYTIME.md).
// ProgressSnapshots counts copy-on-write τ snapshots published by
// completed runs; Streams counts GET /jobs/{id}/stream connections
// served; BudgetedQueries counts GET /graphs/{name}/decompose requests
// admitted, and DeadlineStops how many of their runs were ended by the
// ?maxMs= wall-clock deadline rather than by convergence or the sweep
// budget.
type anytimeStats struct {
	ProgressSnapshots promtext.Counter `json:"progressSnapshots" prom:"nucleusd_progress_snapshots_total" help:"Anytime τ snapshots published."`
	Streams           promtext.Counter `json:"streams" prom:"nucleusd_sse_streams_total" help:"SSE progress streams served."`
	BudgetedQueries   promtext.Counter `json:"budgetedQueries" prom:"nucleusd_budgeted_queries_total" help:"Budgeted synchronous decompositions admitted."`
	DeadlineStops     promtext.Counter `json:"deadlineStops" prom:"nucleusd_deadline_stops_total" help:"Budgeted runs ended by their wall-clock deadline."`
}

// persistenceStats reports the durable store (see internal/store and
// docs/OPERATIONS.md). Snapshots counts full snapshot writes (uploads,
// generates and compactions); WALAppends/WALBytes count appended frames
// (one per published batch) and their bytes since start. Replays is the
// number of graphs recovered at startup and ReplayedBatches the WAL
// batches re-applied for them; Compactions counts WALs folded into fresh
// snapshots. Errors counts non-fatal persistence failures (logged; the
// server keeps serving from memory).
type persistenceStats struct {
	Enabled         bool             `json:"enabled" prom:"nucleusd_persist_enabled" help:"1 when a durable store backs the registry."`
	Snapshots       promtext.Counter `json:"snapshots" prom:"nucleusd_persist_snapshots_total" help:"Graph snapshots written."`
	WALAppends      promtext.Counter `json:"walAppends" prom:"nucleusd_persist_wal_appends_total" help:"WAL frames appended."`
	WALBytes        promtext.Counter `json:"walBytes" prom:"nucleusd_persist_wal_bytes_total" help:"WAL bytes appended."`
	Replays         promtext.Counter `json:"replays" prom:"nucleusd_persist_replays_total" help:"Graphs recovered at startup."`
	ReplayedBatches promtext.Counter `json:"replayedBatches" prom:"nucleusd_persist_replayed_batches_total" help:"Committed WAL batches re-applied at startup."`
	Compactions     promtext.Counter `json:"compactions" prom:"nucleusd_persist_compactions_total" help:"WALs folded into fresh snapshots."`
	Errors          promtext.Counter `json:"errors" prom:"nucleusd_persist_errors_total" help:"Non-fatal persistence failures."`
}

// replicationStats reports the node's place in a replicated deployment
// (see docs/REPLICATION.md): the head of GET /replication/status, the
// puller's replica.Status as is, and the node's own two counters —
// writes rejected by the generation fence and replica→primary
// transitions this process performed. LastError shadows the embedded
// Status.LastError only to keep the key where /stats has always had it,
// after the two counters.
type replicationStats struct {
	Role       string `json:"role"`
	Generation uint64 `json:"generation" prom:"nucleusd_replication_generation" help:"Cluster generation this node operates under."`
	MaxVersion uint64 `json:"maxVersion" prom:"nucleusd_replication_max_version" help:"Highest published graph version on this node."`
	replica.Status
	FencedWrites promtext.Counter `json:"fencedWrites" prom:"nucleusd_replication_fenced_writes_total" help:"Writes rejected by the generation fence."`
	Promotions   promtext.Counter `json:"promotions" prom:"nucleusd_replication_promotions_total" help:"Replica-to-primary promotions performed."`
	LastError    string           `json:"lastError,omitempty"`
}

// statsSnapshot is the one read of the stats document, behind both
// GET /stats and GET /metrics: the counters as of now, plus the gauges.
func (s *Server) statsSnapshot() *statsResponse {
	st := promtext.Snapshot(&s.stats)
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.Graphs = s.reg.count()
	st.Workers = s.cfg.Workers
	st.Jobs.Queued, st.Jobs.Running = s.jobs.counts()
	st.Scheduler = schedulerStats{
		PredictedWaitMs: s.jobs.sched.PredictedWaitMs(),
		PerTenant:       s.jobs.sched.Stats().PerTenant,
		CostModel:       s.jobs.cost.Stats(),
	}
	st.Cache.Lookups = st.Cache.Hits.Load() + st.Cache.Misses.Load()
	st.Cache.Entries = s.cache.len()
	st.Cache.Capacity = s.cfg.CacheSize
	st.Persistence.Enabled = s.store.Durable()
	ns := s.nodeStatus()
	r := &st.Replication
	r.Role, r.Generation, r.MaxVersion, r.Status, r.LastError = ns.Role, ns.Generation, ns.MaxVersion, ns.Status, ns.LastError
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// handleMetrics serves GET /metrics: the stats document in Prometheus
// text exposition format. Every tagged leaf is one series, derived by
// the walk; written out here are only the families that carry a label —
// per-tenant scheduling, and the role exported info-style (one gauge
// per role, 1 for the active one, so a promotion is a label flip).
// Series names are stable API; docs/OPERATIONS.md lists them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.statsSnapshot()
	var p promtext.Writer
	p.Struct(st)
	for name, ts := range st.Scheduler.PerTenant {
		l := map[string]string{"tenant": name}
		p.LabeledCounter("nucleusd_tenant_admitted_total", "Jobs admitted, per tenant.", l, float64(ts.Admitted))
		p.LabeledCounter("nucleusd_tenant_shed_total", "Jobs shed, per tenant.", l, float64(ts.Shed))
		p.LabeledCounter("nucleusd_tenant_degraded_total", "Jobs degraded, per tenant.", l, float64(ts.Degraded))
		p.LabeledGauge("nucleusd_tenant_queued", "Jobs queued, per tenant.", l, float64(ts.Queued))
		p.LabeledGauge("nucleusd_tenant_in_flight", "Jobs running, per tenant.", l, float64(ts.InFlight))
		p.LabeledGauge("nucleusd_tenant_weight", "Deficit-round-robin weight, per tenant.", l, float64(ts.Weight))
	}
	for _, role := range []string{replica.RoleStandalone, replica.RolePrimary, replica.RoleReplica} {
		p.LabeledGauge("nucleusd_replication_role", "1 for the node's active replication role.",
			map[string]string{"role": role}, promtext.Bool(st.Replication.Role == role))
	}
	w.Header().Set("Content-Type", promtext.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.Bytes())
}
