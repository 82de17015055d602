// Package sched is the workload-aware job scheduler behind nucleusd's
// worker pool.
//
// The scheduler replaces the FIFO job channel with observed-cost
// admission, deadline shedding, and deficit-round-robin tenant
// fairness, designed so the whole policy is exercisable without HTTP:
//
//   - CostModel learns per-(graph version, family, algorithm) run cost
//     as EWMAs over completed runs' duration/sweeps/updates, with a
//     size-based (n+m) prior for keys never seen — the "greedy beats
//     optimal, no statistics" stance: a cheap observed-cost heuristic
//     before anything learned.
//   - Scheduler holds one earliest-deadline-first queue per tenant and
//     dispatches across tenants by deficit round robin (equal weights):
//     each backlogged tenant's turn adds one quantum of predicted-ms
//     credit, and its jobs dispatch while the credit covers their
//     predicted cost, so over any window a backlogged tenant's dispatch
//     share stays within one quantum (plus one job) of its fair share.
//     Queued jobs whose deadline has already passed are shed at
//     dispatch time instead of wasting a worker.
//   - Clock abstracts time, so every policy above runs identically
//     under the deterministic simulation harness in the tests.
//
// Admission (per-tenant queued/in-flight quotas, global bound) is
// enforced by Enqueue; overload degradation — running a job under a
// computed anytime budget when its deadline cannot survive the
// predicted queue wait — is decided by the caller (internal/server)
// from PredictedWaitMs and the CostModel's per-sweep estimate.
package sched

import (
	"errors"
	"sync"
	"time"
)

// Admission errors. The server maps the quota errors to 429 and uses
// DrainMs to derive a Retry-After for load-shed submissions.
var (
	// ErrQueueFull reports the global queued-job bound is reached.
	ErrQueueFull = errors.New("scheduler queue is full")
	// ErrTenantQuota reports the submitting tenant's queued-job quota is
	// reached (other tenants may still have room).
	ErrTenantQuota = errors.New("tenant queue quota is full")
	// ErrTenantLimit reports the distinct-tenant cap: a flood of
	// never-before-seen tenant names must not grow state without bound.
	ErrTenantLimit = errors.New("too many distinct tenants")
	// ErrClosed reports a submission after Close.
	ErrClosed = errors.New("scheduler is closed")
)

// maxTenants bounds the distinct tenant names the scheduler tracks.
const maxTenants = 1024

// Item is one schedulable unit of work.
type Item struct {
	// ID is the caller's identifier (the job id); Remove and Position
	// address items by it.
	ID string
	// Tenant names the submitting tenant (already defaulted by the
	// caller; the scheduler treats it as an opaque queue key).
	Tenant string
	// PredictedMs is the cost estimate charged against the tenant's
	// deficit when the item dispatches.
	PredictedMs float64
	// Deadline is the absolute wall deadline; the zero time means none.
	// A queued item whose deadline passes is shed at dispatch time.
	Deadline time.Time
	// Degraded marks an item the caller admitted under a computed
	// anytime budget; the scheduler only counts it.
	Degraded bool
	// Payload is opaque caller state (the server's *job).
	Payload any

	// Scheduler-internal state, guarded by the scheduler mutex.
	started time.Time
	seq     uint64
	pos     int // index in the tenant heap; -1 once off the queue
}

// Config sizes the scheduler.
type Config struct {
	// Workers is the dispatching worker-pool size; wait and drain
	// predictions divide by it. <= 0 defaults to 1.
	Workers int
	// MaxQueued bounds queued items across all tenants. <= 0 defaults
	// to 64.
	MaxQueued int
	// TenantMaxQueued bounds one tenant's queued items. <= 0 defaults
	// to MaxQueued (no per-tenant constraint beyond the global bound).
	TenantMaxQueued int
	// TenantMaxInFlight bounds one tenant's dispatched-but-unfinished
	// items. <= 0 defaults to Workers (no constraint beyond the pool).
	TenantMaxInFlight int
	// QuantumMs is the deficit-round-robin quantum in predicted-ms.
	// <= 0 defaults to 250. Smaller quanta interleave tenants more
	// finely; the fairness bound is one quantum plus one job.
	QuantumMs float64
	// TenantWeights scales the DRR quantum per tenant: a weight-K tenant
	// earns K quanta of predicted-ms credit per rotation turn, so while
	// backlogged it drains at K× a weight-1 tenant's rate. Unlisted
	// tenants (and weights < 1) get weight 1.
	TenantWeights map[string]int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 64
	}
	if c.TenantMaxQueued <= 0 {
		c.TenantMaxQueued = c.MaxQueued
	}
	if c.TenantMaxInFlight <= 0 {
		c.TenantMaxInFlight = c.Workers
	}
	if c.QuantumMs <= 0 {
		c.QuantumMs = 250
	}
	return c
}

// TenantStats is one tenant's cumulative admission outcomes plus its live
// queue occupancy, as /stats reports it under scheduler.perTenant.
// Admitted counts jobs accepted into the queue; Shed counts refusals (at
// admission or by dispatch-time deadline expiry); Degraded counts jobs
// re-budgeted to meet their deadline. Weight is the tenant's
// deficit-round-robin weight (1 unless configured higher).
type TenantStats struct {
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	Degraded int64 `json:"degraded"`
	InFlight int   `json:"inFlight"`
	Queued   int   `json:"queued"`
	Weight   int   `json:"weight"`
}

// Stats is a consistent snapshot of the scheduler.
type Stats struct {
	Queued    int
	InFlight  int
	Admitted  int64
	Shed      int64
	Degraded  int64
	PerTenant map[string]TenantStats
}

// tenantQueue is one tenant's scheduling state.
type tenantQueue struct {
	name string
	// heap is the EDF min-heap: earliest deadline first, deadline-less
	// items FIFO after every deadlined one.
	heap []*Item
	// deficit is the DRR credit in predicted-ms; turnActive marks that
	// this rotation's quantum has been granted (so a turn spanning
	// several Next calls is topped up exactly once).
	deficit    float64
	turnActive bool
	inFlight   int
	// weight scales the per-turn quantum; resolved once at queue
	// creation so the dispatch hot path stays map-lookup- and
	// allocation-free.
	weight float64

	admitted int64
	shed     int64
	degraded int64
}

// Scheduler is the tenant-fair, deadline-aware dispatch queue. All
// methods are safe for concurrent use. Next blocks; TryNext is the
// non-blocking form the deterministic simulation harness drives.
type Scheduler struct {
	mu    sync.Mutex
	cond  *sync.Cond
	clock Clock
	cfg   Config

	tenants map[string]*tenantQueue
	// ring is the round-robin rotation of tenants with queued work;
	// ringPos is the rotation cursor.
	ring    []*tenantQueue
	ringPos int

	byID     map[string]*Item
	inFlight map[*Item]struct{}
	queued   int
	seq      uint64
	closed   bool

	// onShed is invoked (without the scheduler lock) for each queued
	// item discarded because its deadline passed before dispatch.
	onShed func(*Item)

	admitted int64
	shedded  int64
	degraded int64
}

// New constructs a Scheduler. clock may be nil (wall clock); onShed may
// be nil (shed items are silently dropped) and is never called with the
// scheduler lock held.
func New(cfg Config, clock Clock, onShed func(*Item)) *Scheduler {
	if clock == nil {
		clock = RealClock()
	}
	s := &Scheduler{
		cfg:      cfg.withDefaults(),
		clock:    clock,
		tenants:  make(map[string]*tenantQueue),
		byID:     make(map[string]*Item),
		inFlight: make(map[*Item]struct{}),
		onShed:   onShed,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// weightFor resolves a tenant's configured DRR weight, flooring at 1 so
// a misconfigured zero or negative weight cannot starve the tenant.
func (s *Scheduler) weightFor(tenant string) float64 {
	if w, ok := s.cfg.TenantWeights[tenant]; ok && w > 1 {
		return float64(w)
	}
	return 1
}

// Enqueue admits an item, or rejects it with ErrQueueFull,
// ErrTenantQuota, ErrTenantLimit or ErrClosed. The item must not be
// re-enqueued while it is still queued or in flight.
func (s *Scheduler) Enqueue(it *Item) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.queued >= s.cfg.MaxQueued {
		return ErrQueueFull
	}
	t, ok := s.tenants[it.Tenant]
	if !ok {
		if len(s.tenants) >= maxTenants {
			return ErrTenantLimit
		}
		t = &tenantQueue{name: it.Tenant, weight: s.weightFor(it.Tenant)}
		s.tenants[it.Tenant] = t
	}
	if len(t.heap) >= s.cfg.TenantMaxQueued {
		return ErrTenantQuota
	}
	s.seq++
	it.seq = s.seq
	it.started = time.Time{}
	heapPush(t, it)
	if len(t.heap) == 1 {
		s.ring = append(s.ring, t)
	}
	s.byID[it.ID] = it
	s.queued++
	t.admitted++
	s.admitted++
	if it.Degraded {
		t.degraded++
		s.degraded++
	}
	s.cond.Broadcast()
	return nil
}

// RecordShed accounts a submit-time shed (a job the caller refused with
// 503 before it ever reached the queue) against the tenant's counters,
// so /stats reconciles with observed responses.
func (s *Scheduler) RecordShed(tenantName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenantName]; ok {
		t.shed++
	} else if len(s.tenants) < maxTenants {
		s.tenants[tenantName] = &tenantQueue{name: tenantName, weight: s.weightFor(tenantName), shed: 1}
	}
	s.shedded++
}

// Next blocks until an item is dispatchable (returning it, true) or the
// scheduler is closed (returning nil, false). Expired-deadline items
// encountered on the way are shed via the onShed callback.
func (s *Scheduler) Next() (*Item, bool) {
	s.mu.Lock()
	for {
		it, shed := s.dispatchLocked()
		if len(shed) > 0 {
			s.mu.Unlock()
			s.fireShed(shed)
			if it != nil {
				return it, true
			}
			s.mu.Lock()
			continue
		}
		if it != nil {
			s.mu.Unlock()
			return it, true
		}
		if s.closed {
			s.mu.Unlock()
			return nil, false
		}
		s.cond.Wait()
	}
}

// TryNext is the non-blocking Next: it dispatches an item if one is
// eligible right now, and never waits. ok is false when nothing is
// dispatchable (even if items remain queued behind quotas or deficits).
func (s *Scheduler) TryNext() (*Item, bool) {
	s.mu.Lock()
	it, shed := s.dispatchLocked()
	s.mu.Unlock()
	s.fireShed(shed)
	return it, it != nil
}

func (s *Scheduler) fireShed(shed []*Item) {
	if s.onShed == nil {
		return
	}
	for _, it := range shed {
		s.onShed(it)
	}
}

// dispatchLocked runs the DRR rotation: shed expired heads, grant the
// rotation's quantum to the tenant whose turn it is, and dispatch its
// EDF head once the deficit covers the head's predicted cost. Returns
// the dispatched item (nil if nothing is eligible) and any items shed
// along the way. Terminates because a full pass that tops up no tenant
// and dispatches nothing proves every queue is empty or quota-blocked,
// and any topped-up tenant's deficit reaches its head's cost within
// ceil(cost/quantum) passes.
func (s *Scheduler) dispatchLocked() (*Item, []*Item) {
	var shed []*Item
	now := s.clock.Now()
	for {
		// progress means a pass topped up a deficit or retired a stale
		// active turn (one left hanging when its tenant hit the
		// in-flight quota mid-turn); either way the next pass can get
		// further, so loop. A pass with neither proves every queue is
		// empty or quota-blocked.
		progress := false
		for visits := len(s.ring); visits > 0 && len(s.ring) > 0; visits-- {
			if s.ringPos >= len(s.ring) {
				s.ringPos = 0
			}
			t := s.ring[s.ringPos]
			// Shed expired heads first: EDF order puts the earliest
			// deadline on top, so every expired item surfaces here
			// before any live one dispatches.
			for len(t.heap) > 0 {
				head := t.heap[0]
				if head.Deadline.IsZero() || !now.After(head.Deadline) {
					break
				}
				s.takeLocked(t, head)
				t.shed++
				s.shedded++
				shed = append(shed, head)
			}
			if len(t.heap) == 0 {
				t.deficit = 0
				t.turnActive = false
				s.ringRemoveAt(s.ringPos) // cursor now points at the successor
				continue
			}
			if t.inFlight >= s.cfg.TenantMaxInFlight {
				s.ringPos++
				continue
			}
			if !t.turnActive {
				t.deficit += s.cfg.QuantumMs * t.weight
				t.turnActive = true
				progress = true
			}
			head := t.heap[0]
			if t.deficit >= head.PredictedMs {
				t.deficit -= head.PredictedMs
				s.takeLocked(t, head)
				head.started = now
				t.inFlight++
				s.inFlight[head] = struct{}{}
				if len(t.heap) == 0 {
					// An emptied queue forfeits its remaining credit:
					// deficits must not accrue across idle periods.
					t.deficit = 0
					t.turnActive = false
					s.ringRemoveAt(s.ringPos)
				}
				return head, shed
			}
			// Credit too small for the head job: the turn ends, the
			// deficit carries to the next rotation.
			t.turnActive = false
			progress = true
			s.ringPos++
		}
		if !progress {
			return nil, shed
		}
	}
}

// takeLocked removes a queued item from its tenant heap and the global
// accounting (shared by dispatch, shed and Remove).
func (s *Scheduler) takeLocked(t *tenantQueue, it *Item) {
	heapRemove(t, it.pos)
	delete(s.byID, it.ID)
	s.queued--
}

// Done releases an in-flight item's slot. Callers must invoke it
// exactly once for every item returned by Next/TryNext, whether the run
// succeeded, failed or was skipped.
func (s *Scheduler) Done(it *Item) {
	s.mu.Lock()
	if _, ok := s.inFlight[it]; ok {
		delete(s.inFlight, it)
		if t, tok := s.tenants[it.Tenant]; tok {
			t.inFlight--
		}
		s.cond.Broadcast() // an in-flight quota may have unblocked a queue
	}
	s.mu.Unlock()
}

// Remove takes a still-queued item out of the queue (DELETE /jobs on a
// queued job), releasing its global and tenant accounting immediately.
// It returns false when the id is not queued — never submitted, already
// dispatched, shed, or previously removed.
func (s *Scheduler) Remove(id string) (*Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	t := s.tenants[it.Tenant]
	s.takeLocked(t, it)
	if len(t.heap) == 0 {
		t.deficit = 0
		t.turnActive = false
		s.ringRemove(t)
	}
	return it, true
}

// Position reports an item's 1-based earliest-deadline-first rank
// within its tenant's queue (1 = dispatched next among that tenant's
// jobs), or 0 when the id is not queued.
func (s *Scheduler) Position(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.byID[id]
	if !ok {
		return 0
	}
	rank := 1
	for _, other := range s.tenants[it.Tenant].heap {
		if other != it && edfLess(other, it) {
			rank++
		}
	}
	return rank
}

// PredictedWaitMs estimates how long a job submitted now would wait for
// a worker: the predicted-ms backlog — every queued item plus the
// predicted remainder of every in-flight item — divided across the
// pool. Zero when a worker is idle and nothing is queued. It is an
// estimate in exactly the cost model's error band, which is why the
// degradation policy consuming it prefers budgeted answers over shed
// requests when a deadline is tight but not hopeless.
func (s *Scheduler) PredictedWaitMs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.queued == 0 && len(s.inFlight) < s.cfg.Workers {
		return 0
	}
	return s.backlogMsLocked() / float64(s.cfg.Workers)
}

// DrainMs estimates the time to drain the current backlog — the basis
// for Retry-After on shed submissions.
func (s *Scheduler) DrainMs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.backlogMsLocked() / float64(s.cfg.Workers)
}

func (s *Scheduler) backlogMsLocked() float64 {
	now := s.clock.Now()
	var ms float64
	for _, t := range s.tenants {
		for _, it := range t.heap {
			ms += it.PredictedMs
		}
	}
	for it := range s.inFlight {
		remaining := it.PredictedMs - float64(now.Sub(it.started))/float64(time.Millisecond)
		if remaining > 0 {
			ms += remaining
		}
	}
	return ms
}

// Queued returns the number of queued items.
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Stats returns a consistent snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Queued:    s.queued,
		InFlight:  len(s.inFlight),
		Admitted:  s.admitted,
		Shed:      s.shedded,
		Degraded:  s.degraded,
		PerTenant: make(map[string]TenantStats, len(s.tenants)),
	}
	for name, t := range s.tenants {
		st.PerTenant[name] = TenantStats{
			Admitted: t.admitted,
			Shed:     t.shed,
			Degraded: t.degraded,
			InFlight: t.inFlight,
			Queued:   len(t.heap),
			Weight:   int(t.weight),
		}
	}
	return st
}

// Close stops admission and drains every still-queued item, returning
// them so the caller can fail their jobs. Blocked Next calls return
// (nil, false); in-flight items finish normally (their Done calls are
// still accepted).
func (s *Scheduler) Close() []*Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var drained []*Item
	for _, t := range s.tenants {
		drained = append(drained, t.heap...)
		for _, it := range t.heap {
			it.pos = -1
			delete(s.byID, it.ID)
		}
		t.heap = nil
		t.deficit = 0
		t.turnActive = false
	}
	s.ring = s.ring[:0]
	s.ringPos = 0
	s.queued = 0
	s.cond.Broadcast()
	return drained
}

// ---------------------------------------------------------------------------
// Ring (round-robin rotation of tenants with queued work).

func (s *Scheduler) ringRemove(t *tenantQueue) {
	for i, rt := range s.ring {
		if rt == t {
			s.ringRemoveAt(i)
			return
		}
	}
}

// ringRemoveAt deletes the ring slot, keeping rotation order and fixing
// the cursor so the rotation continues at the removed slot's successor.
func (s *Scheduler) ringRemoveAt(i int) {
	copy(s.ring[i:], s.ring[i+1:])
	s.ring[len(s.ring)-1] = nil
	s.ring = s.ring[:len(s.ring)-1]
	if s.ringPos > i {
		s.ringPos--
	}
	if s.ringPos >= len(s.ring) {
		s.ringPos = 0
	}
}

// ---------------------------------------------------------------------------
// EDF heap (hand-rolled on the tenant's slice: container/heap would box
// every push through an interface, and TestSchedulerDispatchZeroAlloc /
// TestSchedulerBacklogDispatchZeroAlloc hold the dispatch path at 0
// allocations).

// edfLess orders items earliest-deadline-first; the zero deadline sorts
// after every real one, and ties (including deadline-less pairs) break
// FIFO by admission sequence.
func edfLess(a, b *Item) bool {
	az, bz := a.Deadline.IsZero(), b.Deadline.IsZero()
	switch {
	case az && bz:
		return a.seq < b.seq
	case az:
		return false
	case bz:
		return true
	}
	if a.Deadline.Equal(b.Deadline) {
		return a.seq < b.seq
	}
	return a.Deadline.Before(b.Deadline)
}

func heapPush(t *tenantQueue, it *Item) {
	t.heap = append(t.heap, it)
	it.pos = len(t.heap) - 1
	heapUp(t, it.pos)
}

// heapRemove deletes the item at index i, restoring heap order.
func heapRemove(t *tenantQueue, i int) {
	n := len(t.heap) - 1
	it := t.heap[i]
	if i != n {
		heapSwap(t, i, n)
	}
	t.heap[n] = nil
	t.heap = t.heap[:n]
	if i != n {
		heapDown(t, i)
		heapUp(t, i)
	}
	it.pos = -1
}

func heapSwap(t *tenantQueue, i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.heap[i].pos = i
	t.heap[j].pos = j
}

func heapUp(t *tenantQueue, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !edfLess(t.heap[i], t.heap[parent]) {
			break
		}
		heapSwap(t, i, parent)
		i = parent
	}
}

func heapDown(t *tenantQueue, i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && edfLess(t.heap[l], t.heap[least]) {
			least = l
		}
		if r < n && edfLess(t.heap[r], t.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		heapSwap(t, i, least)
		i = least
	}
}
