package server

import (
	"fmt"
	"runtime"
	"time"

	"nucleus/internal/localhi"
)

// ---------------------------------------------------------------------------
// The read pipeline: newQuery, then resolve (lookup → flight → run → fill →
// account).
//
// Theorem 1 makes an exact κ, a sweep-budgeted τ and a deadline-stopped τ
// the same computation stopped at three different points, so every request
// that needs a κ array — an asynchronous job, a synchronous /decompose,
// /hierarchy, /nuclei or /core read, a ?maxMs= deadline read — is one query
// value answered by one resolve. resolve is the only code that looks a
// request up in the LRU, joins or opens a flight, calls the engines
// (runDecomposition) and counts the request in /stats; fill is the only
// code that writes the LRU, for resolve and for the warm fills of the write
// path alike. (A job's admission runs resolve's first step, lookup, on its
// own, to finish a cached key without queueing it.) Like the write pipeline
// (write.go) none of it knows HTTP: handlers are build query → resolve →
// encode.
//
// The rules, each pinned by a named test (docs/ARCHITECTURE.md):
//
//   - a request consults its own key; a deadline read consults the exact key
//     first (a converged κ beats any deadline), then its budget key;
//   - a run fills its own key; a deadline read that converged inside its
//     deadline fills the exact key; a run its owner stopped (cancel flag or
//     deadline) depends on timing, so it is never cached and never handed to
//     a coalesced waiter, who retries;
//   - only the flight's owner can stop a run: a coalesced caller's stop is
//     not consulted.

// query is one request for a κ (or τ) array.
type query struct {
	entry *graphEntry
	// dec, alg and maxSweeps are normalized by newQuery and, with the
	// entry's name and version, are the cache key: equivalent requests share
	// one slot. maxSweeps 0 runs to convergence.
	dec, alg  string
	maxSweeps int
	// threads is the effective intra-run worker count.
	threads int
	// pooled marks a query a pool worker resolves. Any other runs on a
	// request goroutine, where a miss is graph-sized work the pool bound does
	// not see, so it takes a synchronous-work slot.
	pooled bool
	// deadline, when set, makes this a deadline read: the run stops at the
	// first sweep boundary past it.
	deadline time.Time
	// stop is the owner's cooperative stop signal (a job's cancel flag).
	stop func() bool
	// onFlight, when non-nil, is called with the flight this query attached
	// to (its own or another caller's) before any blocking work, so the
	// caller can expose the run's live progress publisher.
	onFlight func(*flight)
}

// newQuery validates and normalizes a request's parameters. threads <= 0
// selects the server default. e is stored, not read: a caller may validate
// the parameters before it reports an unknown graph.
func (s *Server) newQuery(e *graphEntry, dec, alg string, maxSweeps, threads int) (q query, err error) {
	if q.dec, err = normalizeDec(dec); err != nil {
		return q, err
	}
	if q.alg, err = normalizeAlg(alg); err != nil {
		return q, err
	}
	if q.alg == "peel" || maxSweeps < 0 {
		// Peeling is exact and ignores the sweep budget, and the local
		// algorithms treat any non-positive budget as "run to convergence".
		maxSweeps = 0
	}
	// Clamp client-supplied parallelism to the host: an arbitrary request
	// must not be able to spawn unbounded goroutines.
	if max := runtime.GOMAXPROCS(0); threads > max {
		threads = max
	}
	if threads <= 0 {
		threads = s.cfg.JobThreads
	}
	q.entry, q.maxSweeps, q.threads = e, maxSweeps, threads
	return q, nil
}

func normalizeDec(s string) (string, error) {
	switch s {
	case "", "core", "kcore", "12":
		return "core", nil
	case "truss", "ktruss", "23":
		return "truss", nil
	case "n34", "34", "nucleus34":
		return "n34", nil
	}
	return "", fmt.Errorf("unknown decomposition %q (want core, truss or n34)", s)
}

func normalizeAlg(s string) (string, error) {
	switch s {
	case "", "and":
		return "and", nil
	case "snd":
		return "snd", nil
	case "peel":
		return "peel", nil
	}
	return "", fmt.Errorf("unknown algorithm %q (want and, snd or peel)", s)
}

// keyOf is the cache slot of (e, dec, alg, maxSweeps), all normalized.
func keyOf(e *graphEntry, dec, alg string, maxSweeps int) cacheKey {
	return cacheKey{e.name, e.version, dec, alg, maxSweeps}
}

func (q query) key() cacheKey      { return keyOf(q.entry, q.dec, q.alg, q.maxSweeps) }
func (q query) exactKey() cacheKey { return keyOf(q.entry, q.dec, q.alg, 0) }

// flight is one in-progress decomposition that concurrent callers wait
// on; res/err are set before done is closed. prog is the run's anytime
// progress publisher (nil for peel runs or when publishing is disabled),
// shared by every job that coalesces onto the flight.
type flight struct {
	done chan struct{}
	res  *decompResult
	err  error
	prog *localhi.Progress
}

// lookup consults the LRU for q.
func (s *Server) lookup(q query) (*decompResult, bool) {
	if !q.deadline.IsZero() && q.maxSweeps > 0 {
		if res, ok := s.cache.get(q.exactKey()); ok {
			return res, true
		}
	}
	return s.cache.get(q.key())
}

// outcome is how one admitted request was resolved.
type outcome int

const (
	served  outcome = iota // from the cache, or coalesced onto another caller's run
	ran                    // paid for a run of the engines
	dropped                // a job shed, cancelled in the queue or shut down before a worker took it
)

// account counts one admitted request, exactly once: served is a hit,
// anything else a miss, and ran one cold run besides.
func (s *Server) account(o outcome) {
	switch o {
	case served:
		s.stats.Cache.Hits.Add(1)
		return
	case ran:
		s.stats.Mutations.ColdRuns.Add(1)
	}
	s.stats.Cache.Misses.Add(1)
}

// fill caches res under key with a liveness recheck: if the graph was
// deleted or replaced while res was computed, its purge may have run before
// our put — take the dead entry back out rather than pin a κ array and an
// instance in the LRU unreachable. Every interleaving removes it: either the
// purge saw our insert, or this recheck sees the changed version.
func (s *Server) fill(key cacheKey, res *decompResult) {
	s.cache.put(key, res)
	if cur, ok := s.reg.get(key.graph); !ok || cur.version != key.version {
		s.cache.remove(key)
	}
}

// join attaches q to the flight of key, opening one when none is in the
// air; owner reports that q opened it and must run and land it.
func (s *Server) join(q query, key cacheKey) (f *flight, owner bool) {
	s.flightMu.Lock()
	f, ok := s.inflight[key]
	if !ok {
		f = &flight{done: make(chan struct{})}
		if q.alg != "peel" && s.cfg.ProgressEvery > 0 {
			f.prog = localhi.NewProgress(s.cfg.ProgressEvery)
		}
		s.inflight[key] = f
	}
	s.flightMu.Unlock()
	if q.onFlight != nil {
		q.onFlight(f)
	}
	return f, !ok
}

// resolve answers q: from the LRU, from another caller's flight, or by
// running the decomposition and caching it. hit reports that this caller
// did not pay for a run.
func (s *Server) resolve(q query) (res *decompResult, hit bool, err error) {
	key, slot, timed := q.key(), q.pooled, !q.deadline.IsZero()
	for {
		if res, ok := s.lookup(q); ok {
			s.account(served)
			return res, true, nil
		}
		if !slot {
			// Taken only after a miss, so a cached answer costs no slot; then
			// look again, the key may have been filled during the wait.
			s.acquireSync()
			defer s.releaseSync()
			slot = true
			continue
		}
		// Single-flight: the first caller of a key owns the run, concurrent
		// callers wait for it and share its result. A deadline read does
		// neither — a waiter could not honour its own deadline, and a run
		// its deadline may cut short is of no use to anyone else — so it
		// runs alone, with the deadline as its stop signal and no publisher.
		var own *flight
		var prog *localhi.Progress
		stop := q.stop
		if timed {
			stop = func() bool { return time.Now().After(q.deadline) }
		} else if f, owner := s.join(q, key); owner {
			own, prog = f, f.prog
		} else {
			<-f.done
			if f.err == nil && f.res.Stopped {
				// The owner's run was cancelled; its partial result is the
				// owner's alone. The flight-table slot is free again.
				continue
			}
			s.account(served)
			return f.res, true, f.err
		}
		res, err = s.runDecomposition(q, prog, stop)
		if prog != nil {
			s.stats.Anytime.ProgressSnapshots.Add(prog.Published())
			// The engine finishes the publisher on every normal exit; a
			// panic converted to err by runDecomposition would leave
			// subscribers hanging, so release them (no-op when finished).
			prog.Abort()
		}
		switch {
		case err != nil:
		case timed && res.Stopped:
			s.stats.Anytime.DeadlineStops.Add(1)
		case timed && res.Converged:
			s.fill(q.exactKey(), res) // inside the deadline: the exact answer, for everyone
		case !res.Stopped:
			s.fill(key, res)
		}
		if own != nil {
			own.res, own.err = res, err
			s.flightMu.Lock()
			delete(s.inflight, key)
			s.flightMu.Unlock()
			close(own.done)
		}
		// Counted before the error is looked at: a failed run still resolves
		// this request, as a miss.
		s.account(ran)
		return res, false, err
	}
}
