package localhi

import (
	"sync"
	"sync/atomic"
	"time"
)

// The anytime progress publisher: Theorem 1 makes every intermediate τ a
// valid approximation (τ ≥ κ pointwise, non-increasing per sweep), so a
// running decomposition has useful partial results long before it
// converges. Progress turns that property into something a serving layer
// can stream: after each sweep it takes a copy-on-write snapshot of τ
// together with ground-truth-free convergence metrics (fraction of cells
// unchanged, update rate, max τ) and hands immutable snapshots to any
// number of concurrent readers — pollers via Latest, streamers via
// Subscribe — without ever blocking the sweep workers or touching the
// zero-allocation sweep kernel (publishing happens between sweeps, on
// the coordinating goroutine).

// Snapshot is one immutable progress observation, taken after a sweep.
// The exact gap τ−κ is unobservable mid-run (κ is the limit), so the
// snapshot carries the paper's §1.2 ground-truth-free signals instead:
// the update rate decays to zero as τ approaches κ, and FractionStable
// is exactly 1 on the sweep that certifies convergence.
type Snapshot struct {
	// Sweep is the 1-based sweep index this snapshot was taken after.
	Sweep int
	// Tau is a private copy of the τ array; safe to retain and read.
	Tau []int32
	// MaxTau is the largest τ value. It upper-bounds the largest κ and is
	// non-increasing across snapshots.
	MaxTau int32
	// TauSum is the sum of all τ values: a scalar, monotonically
	// non-increasing progress measure (it stops moving exactly at κ).
	TauSum int64
	// Updates is the number of τ decrements applied in this sweep.
	Updates int64
	// UpdateRate is Updates divided by the cell count: the fraction of
	// cells still changing.
	UpdateRate float64
	// FractionStable is 1 − UpdateRate: the fraction of cells whose τ the
	// sweep left unchanged (exactly 1.0 on a certifying sweep).
	FractionStable float64
	// Converged is true once τ = κ has been certified; only possible on a
	// Final snapshot.
	Converged bool
	// Final marks the run's last snapshot (converged, budget-exhausted,
	// or stopped).
	Final bool
	// Elapsed is the wall time since the run started.
	Elapsed time.Duration
}

// Progress publishes per-sweep snapshots of a running decomposition. The
// zero value is not usable; construct with NewProgress and set it on
// Options.Progress. One Progress observes one run; do not share across
// runs.
type Progress struct {
	every int
	start time.Time

	latest    atomic.Pointer[Snapshot]
	published atomic.Int64

	mu   sync.Mutex
	subs map[chan *Snapshot]struct{}

	done       chan struct{}
	finishOnce sync.Once
}

// NewProgress constructs a publisher that snapshots every k-th sweep
// (k <= 1 means every sweep). The final sweep is always published
// regardless of k.
func NewProgress(every int) *Progress {
	if every < 1 {
		every = 1
	}
	return &Progress{
		every: every,
		start: time.Now(),
		subs:  make(map[chan *Snapshot]struct{}),
		done:  make(chan struct{}),
	}
}

// Latest returns the most recent snapshot, or nil before the first sweep
// completes.
func (p *Progress) Latest() *Snapshot { return p.latest.Load() }

// Done returns a channel closed when the observed run has finished and
// its Final snapshot is available via Latest.
func (p *Progress) Done() <-chan struct{} { return p.done }

// Published returns how many snapshots have been published so far.
func (p *Progress) Published() int64 { return p.published.Load() }

// Subscribe registers a snapshot channel with the given buffer capacity
// (minimum 1) and returns it with a cancel function. Delivery is
// non-blocking with drop-oldest semantics: a reader that falls behind
// skips intermediate sweeps but always observes the freshest state, and
// the channel is closed after the Final snapshot is delivered. Cancel is
// idempotent and must be called when the reader stops early.
func (p *Progress) Subscribe(buffer int) (<-chan *Snapshot, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan *Snapshot, buffer)
	p.mu.Lock()
	select {
	case <-p.done:
		// The run already finished: deliver the final snapshot (if any)
		// and hand back an already-closed channel.
		if s := p.latest.Load(); s != nil {
			ch <- s
		}
		close(ch)
	default:
		p.subs[ch] = struct{}{}
	}
	p.mu.Unlock()
	return ch, func() {
		p.mu.Lock()
		if _, ok := p.subs[ch]; ok {
			delete(p.subs, ch)
			close(ch)
		}
		p.mu.Unlock()
	}
}

// observe builds and publishes the snapshot for a completed sweep.
// final forces publication regardless of the every-k filter.
func (p *Progress) observe(sweep int, tau []int32, updates int64, converged, final bool) {
	if !final && p.every > 1 && sweep%p.every != 0 {
		return
	}
	s := &Snapshot{
		Sweep:     sweep,
		Tau:       append([]int32(nil), tau...),
		Updates:   updates,
		Converged: converged,
		Final:     final,
		Elapsed:   time.Since(p.start),
	}
	for _, v := range s.Tau {
		if v > s.MaxTau {
			s.MaxTau = v
		}
		s.TauSum += int64(v)
	}
	if n := len(s.Tau); n > 0 {
		s.UpdateRate = float64(updates) / float64(n)
	}
	s.FractionStable = 1 - s.UpdateRate
	p.latest.Store(s)
	p.published.Add(1)

	p.mu.Lock()
	for ch := range p.subs {
		select {
		case ch <- s:
		default:
			// Slow reader: drop its oldest pending snapshot and retry, so
			// the channel always holds the freshest state and the sweep
			// never blocks on a subscriber.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- s:
			default:
			}
		}
		if final {
			delete(p.subs, ch)
			close(ch)
		}
	}
	if final {
		// Close done inside the same critical section that delivered the
		// final snapshot: Subscribe checks done under this mutex, so no
		// subscriber can register in a window where the final delivery
		// already happened but done still looks open (it would hang
		// forever — no future observe will run).
		close(p.done)
	}
	p.mu.Unlock()
}

// finish publishes the run's Final snapshot and closes Done. Idempotent:
// only the first call publishes (the engines call it on every exit path,
// and a serving layer may call it again defensively after a panic).
func (p *Progress) finish(res *Result) {
	p.finishOnce.Do(func() {
		var updates int64
		if n := len(res.SweepUpdates); n > 0 {
			updates = res.SweepUpdates[n-1]
		}
		// The final observe also closes done, atomically with the last
		// delivery (see observe).
		p.observe(res.Sweeps, res.Tau, updates, res.Converged, true)
	})
}

// Abort ends publication without a Final snapshot: subscriber channels
// are closed and Done is released. For the embedding layer's cleanup
// when the observed run died (e.g. panicked) before calling finish;
// a no-op on an already-finished publisher.
func (p *Progress) Abort() {
	p.finishOnce.Do(func() {
		p.mu.Lock()
		for ch := range p.subs {
			delete(p.subs, ch)
			close(ch)
		}
		close(p.done) // under mu, for the same Subscribe race as observe
		p.mu.Unlock()
	})
}
