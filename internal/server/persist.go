package server

import (
	"fmt"
	"log"
	"runtime"

	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/par"
	"nucleus/internal/store"
)

// ---------------------------------------------------------------------------
// Durable persistence glue (package store).
//
// The registry's durable state is split the way the store package frames
// it: a snapshot per graph (CSR + metadata + maintained exact κ when
// known) and a WAL of committed edit batches since that snapshot. The
// serving layer owns the ordering guarantees:
//
//   - uploads/generates persist the snapshot BEFORE the graph is published
//     and the 201 sent, under the per-name mutation lock (installGraph), so
//     an acknowledged upload survives a crash, an unacknowledged one was
//     never visible, and neither interleaves with a mutation or compaction;
//   - an edit batch is applied to a private overlay and appended as one WAL
//     frame {version, batch, changed κ} before its minted version is published
//     (commitBatch), so replay reconstructs exactly the acknowledged state
//     and a batch whose append fails was never visible;
//   - a background compactor folds long WALs into fresh snapshots once they
//     cross Config.WALCompactBytes, bounding replay time;
//   - startup replays snapshot+WAL for every persisted graph, restores the
//     exact pre-restart versions, and installs the persisted exact κ as the
//     core cache entry (warmRecoverCore) so the first post-restart request
//     is a hit instead of a cold decomposition.

// recoverFromStore rebuilds the registry from the persistence backend.
// Called from New before the listener can exist, so no request can observe
// a half-recovered registry; the shared structures the workers do touch —
// registry install, result cache, atomic counters — are all internally
// locked, which is what makes the per-graph fan-out below safe.
// Per-graph failures are logged and counted, not fatal: one corrupt graph
// must not take down the other millions.
//
// Graphs recover concurrently across a worker pool (each graph's WAL
// replay is inherently serial — batch order is the contract — but graphs
// are independent), and each snapshot decode additionally fans its CSR
// construction across Config.JobThreads when the backend implements
// store.ThreadedLoader. Recovered versions are bit-identical to the serial
// path: per-graph results do not depend on recovery order, and publish
// leaves the version counter at the max over all of them.
func (s *Server) recoverFromStore() {
	names, err := s.store.List()
	if err != nil {
		log.Printf("nucleusd: listing persisted graphs: %v", err)
		s.stats.Persistence.Errors.Add(1)
		return
	}
	loader, _ := s.store.(store.ThreadedLoader)
	par.ForEach(len(names), 1, runtime.GOMAXPROCS(0), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			name := names[i]
			var (
				snap    *store.Snapshot
				batches []store.CommittedBatch
				err     error
			)
			if loader != nil {
				snap, batches, err = loader.LoadThreads(name, s.cfg.JobThreads)
			} else {
				snap, batches, err = s.store.Load(name)
			}
			if err != nil {
				log.Printf("nucleusd: recovering graph %q: %v", name, err)
				s.stats.Persistence.Errors.Add(1)
				continue
			}
			e, err := s.rebuildEntry(name, snap, batches)
			if err != nil {
				log.Printf("nucleusd: recovering graph %q: %v", name, err)
				s.stats.Persistence.Errors.Add(1)
				continue
			}
			s.reg.publish(e, nil)
			s.stats.Persistence.Replays.Add(1)
			s.stats.Persistence.ReplayedBatches.Add(int64(len(batches)))
			if e.coreKappa != nil {
				s.warmRecoverCore(e, nil)
			}
		}
	})
}

// rebuildEntry replays one graph: the snapshot is the base, each logged
// WAL batch is re-applied through the same overlay (overlayFor) and
// applyBatch commitBatch uses — the rows edited and the logged core
// numbers installed, or for a format-2 batch the repair — and the entry
// lands at the exact version the last batch was published at. When the
// snapshot carries the maintained exact κ the overlay seeds from it (no
// cold peel even with a non-empty WAL); a never-decomposed lineage with a
// WAL pays one peel. A logged list that does not fit the graph fails the
// graph, naming the batch's version and the vertex.
func (s *Server) rebuildEntry(name string, snap *store.Snapshot, batches []store.CommittedBatch) (*graphEntry, error) {
	e := &graphEntry{
		name:      name,
		g:         snap.Graph,
		version:   snap.Meta.Version,
		source:    snap.Meta.Source,
		created:   snap.Meta.CreatedAt,
		coreKappa: snap.Kappa,
		mutations: snap.Meta.Mutations,
	}
	if len(batches) == 0 {
		return e, nil
	}
	dyn := s.overlayFor(e)
	for _, b := range batches {
		if _, _, _, err := applyBatch(dyn, &b.Batch, int(batchNeedN(dyn.N(), &b.Batch))); err != nil {
			return nil, fmt.Errorf("replaying version %d: %w", b.Version, err)
		}
		e.version = b.Version
		e.mutations++
	}
	e.g, e.coreKappa = dyn.Static(), dyn.CoreNumbers()
	return e, nil
}

// warmRecoverCore installs e's maintained (or persisted) exact κ as its
// core cache entry, under the (core, and, 0) key the default read path
// consults: the array is already what /core serves, what the snapshot
// persists and what the next repair starts from, so the first read of a
// new, recovered or shipped version is a hit and nothing re-derives it
// (coldRuns stays 0 across a batch, a restart and a resync). Exactness is
// asserted where a disagreement is reported — the dynamic-vs-peel property
// and fuzz tests, the three-routes-one-state test, the benchmark's peel of
// both nodes — not by a sweep whose result nothing read. seed is the
// previous version's cached result when there was one (nil after recovery
// or on a replica), for the sweeps-saved accounting.
func (s *Server) warmRecoverCore(e *graphEntry, seed *decompResult) {
	s.recordWarm(seed, 0)
	s.fill(keyOf(e, nucleus.FamilyCore, localhi.AND, 0), &decompResult{
		Kappa: e.coreKappa, MaxKappa: maxOf(e.coreKappa), Converged: true,
		Inst: s.instanceOf(e, nucleus.FamilyCore), hier: new(forestMemo), tail: new(tailMemo),
	})
}

// persistSnapshot writes the entry's current state as the authoritative
// snapshot (truncating its WAL). Callers hold the per-name mutation lock.
func (s *Server) persistSnapshot(e *graphEntry) error {
	if !s.store.Durable() {
		return nil
	}
	err := s.store.SaveSnapshot(e.name, &store.Snapshot{
		Meta: store.Meta{
			Version:   e.version,
			Source:    e.source,
			CreatedAt: e.created,
			Mutations: e.mutations,
		},
		Graph: e.g,
		Kappa: e.coreKappa,
	})
	if err == nil {
		s.stats.Persistence.Snapshots.Add(1)
	}
	return err
}

// ---------------------------------------------------------------------------
// Background WAL compaction.

// startCompactor launches the single compaction worker. One worker is
// deliberate: compaction takes the per-name mutation lock and writes a
// full snapshot, so running many concurrently would just contend with
// mutations for disk bandwidth.
func (s *Server) startCompactor() {
	s.compactCh = make(chan string, 64)
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		for name := range s.compactCh {
			s.compactGraph(name)
		}
	}()
}

// stopCompactor shuts the worker down idempotently (Close may run twice).
func (s *Server) stopCompactor() {
	s.compactMu.Lock()
	already := s.compactClosed
	s.compactClosed = true
	s.compactMu.Unlock()
	if already || s.compactCh == nil {
		return
	}
	close(s.compactCh)
	s.compactWG.Wait()
}

// maybeCompact enqueues name for compaction when its WAL has outgrown the
// threshold. Non-blocking: if the queue is full the next batch re-triggers
// it, and a send racing shutdown is simply dropped.
func (s *Server) maybeCompact(name string) {
	if !s.store.Durable() || s.cfg.WALCompactBytes < 0 {
		return
	}
	if s.store.WALSize(name) <= s.cfg.WALCompactBytes {
		return
	}
	s.compactMu.Lock()
	if !s.compactClosed {
		select {
		case s.compactCh <- name:
		default:
		}
	}
	s.compactMu.Unlock()
}

// compactGraph folds name's WAL into a fresh snapshot. The per-name
// mutation lock serializes it against edit batches and re-uploads, so the
// snapshot it writes is a consistent (graph, version, κ) triple: commitBatch
// appends and publishes under this lock, so every frame in the log is
// already published and none can land between the state read and the WAL
// truncation.
func (s *Server) compactGraph(name string) {
	lock := s.reg.mutationLock(name)
	lock.Lock()
	defer lock.Unlock()
	e, ok := s.reg.get(name)
	if !ok {
		return // deleted while queued
	}
	if s.store.WALSize(name) <= s.cfg.WALCompactBytes {
		return // already compacted (or re-uploaded) while queued
	}
	if err := s.persistSnapshot(e); err != nil {
		log.Printf("nucleusd: compacting graph %q: %v", name, err)
		s.stats.Persistence.Errors.Add(1)
		return
	}
	s.stats.Persistence.Compactions.Add(1)
}
