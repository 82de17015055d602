package sched

import "sync"

// CostKey identifies one workload class. Jobs sharing a (graph version,
// decomposition family, algorithm) triple converge alike — same instance,
// same sweep structure — so one cost estimate per key is the right
// granularity. The version is part of the key because an edit batch can
// change a graph's convergence behavior; estimates for dead versions age
// out of the bounded entry table.
type CostKey struct {
	Graph   string
	Version uint64
	Dec     string
	Alg     string
}

// costEntry is the learned per-key state: exponentially weighted moving
// averages of observed run duration, sweeps and τ updates from completed
// runs (the per-run convergence metrics the engines already report).
type costEntry struct {
	ms      float64
	sweeps  float64
	updates float64
}

// Prediction is the model's estimate for one arriving job.
type Prediction struct {
	// Ms is the predicted wall time of a full run in milliseconds.
	Ms float64
	// SweepMs is the predicted cost of a single sweep — the unit the
	// degradation policy budgets in (maxSweeps = available / SweepMs).
	SweepMs float64
	// Sweeps is the predicted sweep count of a full run.
	Sweeps float64
	// Cold is true when no run of this key has been observed and the
	// size-based prior produced the estimate.
	Cold bool
}

// CostModelStats is the snapshot of the model that /stats reports under
// scheduler.costModel and /metrics derives from (internal/promtext reads
// the prom and help tags): how many (graph version, family, algorithm)
// keys it has learned and how its predictions split between learned
// (hits) and cold-prior (misses) answers.
type CostModelStats struct {
	Entries      int   `json:"entries" prom:"nucleusd_sched_cost_model_entries" help:"Keys the cost model has learned."`
	Hits         int64 `json:"hits" prom:"nucleusd_sched_cost_model_hits_total" help:"Predictions answered from a learned key."`
	Misses       int64 `json:"misses" prom:"nucleusd_sched_cost_model_misses_total" help:"Predictions answered from the cold-start prior."`
	Observations int64 `json:"observations" prom:"nucleusd_sched_cost_model_observations_total" help:"Completed runs the cost model has observed."`
	// MeanAbsErrPct is the running mean of |observed − predicted| /
	// observed, in percent, over all observed completions (cold-start
	// predictions included — the honest number).
	MeanAbsErrPct float64 `json:"meanAbsErrPct" prom:"nucleusd_sched_cost_model_mean_abs_err_pct" help:"Running mean absolute prediction error of the cost model, in percent."`
}

// Cost-model defaults. The cold-start prior charges priorUnitMs per
// graph unit (n+m): deliberately pessimistic for small graphs so an
// untrained server degrades or sheds conservatively rather than
// over-admitting, and corrected by the learned global rate after the
// first few completions. priorSweeps is the assumed sweep count of a
// cold run (local algorithms on real graphs converge in roughly 5–30
// sweeps; the geometric middle is good enough for a first budget).
const (
	defaultAlpha = 0.3
	priorUnitMs  = 0.002
	priorSweeps  = 8
	// maxEntries bounds the per-key table: graph versions churn with
	// every edit batch, and the model must not grow without bound in a
	// long-running server. Over the cap, an arbitrary entry is evicted
	// (map iteration order): dead-version entries are never consulted
	// again, so which one goes is immaterial.
	maxEntries = 4096
	// minObservedMs floors observations: a cache-adjacent run measured
	// at ~0 ms would otherwise collapse an EWMA (and divide error
	// percentages by zero).
	minObservedMs = 0.01
)

// CostModel predicts job cost from observed completions: one EWMA per
// CostKey, plus a learned global ms-per-(n+m) rate that prices keys
// never seen before (the size-based prior). Safe for concurrent use.
type CostModel struct {
	mu      sync.Mutex
	alpha   float64
	entries map[CostKey]*costEntry
	// unitRate is the global EWMA of observed ms per (n+m) unit,
	// seeding cold predictions; it starts at priorUnitMs.
	unitRate float64

	hits, misses int64
	observations int64
	errPctSum    float64
}

// NewCostModel returns a model with the given EWMA smoothing factor in
// (0, 1]; values outside that range select the default (0.3).
func NewCostModel(alpha float64) *CostModel {
	if alpha <= 0 || alpha > 1 {
		alpha = defaultAlpha
	}
	return &CostModel{
		alpha:    alpha,
		entries:  make(map[CostKey]*costEntry),
		unitRate: priorUnitMs,
	}
}

// Predict estimates the cost of a job with the given key on a graph of
// the given size (n+m). A known key returns its EWMA state; a cold key
// falls back to the size prior: unitRate × size, at priorSweeps sweeps.
func (m *CostModel) Predict(k CostKey, size int64) Prediction {
	if size < 1 {
		size = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[k]; ok {
		m.hits++
		sweeps := e.sweeps
		if sweeps < 1 {
			// Peel runs report no sweeps; budget as if one monolithic
			// sweep, so a degraded budget can never be zero-priced.
			sweeps = 1
		}
		return Prediction{Ms: e.ms, SweepMs: e.ms / sweeps, Sweeps: sweeps}
	}
	m.misses++
	ms := m.unitRate * float64(size)
	if ms < minObservedMs {
		ms = minObservedMs
	}
	return Prediction{Ms: ms, SweepMs: ms / priorSweeps, Sweeps: priorSweeps, Cold: true}
}

// Observe feeds one completed run back into the model: the per-key EWMAs,
// the global unit rate, and the prediction-error average (predictedMs is
// what Predict returned when the job was admitted). Shed, cancelled and
// failed runs must not be observed — their durations measure policy, not
// workload.
func (m *CostModel) Observe(k CostKey, size int64, predictedMs, observedMs float64, sweeps int, updates int64) {
	if size < 1 {
		size = 1
	}
	if observedMs < minObservedMs {
		observedMs = minObservedMs
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[k]
	if !ok {
		if len(m.entries) >= maxEntries {
			for victim := range m.entries {
				delete(m.entries, victim)
				break
			}
		}
		// First observation initializes the EWMAs outright: blending
		// with a zero start would systematically underpredict.
		e = &costEntry{ms: observedMs, sweeps: float64(sweeps), updates: float64(updates)}
		m.entries[k] = e
	} else {
		e.ms += m.alpha * (observedMs - e.ms)
		e.sweeps += m.alpha * (float64(sweeps) - e.sweeps)
		e.updates += m.alpha * (float64(updates) - e.updates)
	}
	m.unitRate += m.alpha * (observedMs/float64(size) - m.unitRate)
	m.observations++
	if predictedMs > 0 {
		err := predictedMs - observedMs
		if err < 0 {
			err = -err
		}
		m.errPctSum += 100 * err / observedMs
	}
}

// Stats returns a consistent snapshot of the model counters.
func (m *CostModel) Stats() CostModelStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := CostModelStats{
		Entries:      len(m.entries),
		Hits:         m.hits,
		Misses:       m.misses,
		Observations: m.observations,
	}
	if m.observations > 0 {
		st.MeanAbsErrPct = m.errPctSum / float64(m.observations)
	}
	return st
}
