package server

import (
	"errors"
	"fmt"

	"nucleus/internal/dynamic"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/store"
)

// ---------------------------------------------------------------------------
// The write pipeline: installGraph, commitBatch, dropGraph.
//
// Every change to a graph's published or durable state — a client's upload,
// edit batch or delete, the same three shipped from a primary to a replica,
// and (through overlayFor and applyBatch) WAL replay at startup — runs
// through these three methods, so a replica or a restarted node holds
// exactly what the primary acknowledged. A batch's core numbers are
// computed once, by the primary's repair, and logged in its frame; a
// replica and a replay edit the rows and install those values instead of
// running the repair again (only a batch from a format-2 log, which has no
// list, is repaired). They know nothing of HTTP: failures come back as
// typed errors, which the handlers map to a status (writeStatus,
// handlers.go) and the replication applier to its lastError text.
//
// Each method takes the per-name mutation lock, so WAL frames land in
// version order and a snapshot is a consistent (graph, version, κ) triple.
// The parameter `at` separates the two kinds of caller: 0 mints a fresh
// version (a client write on the primary); a positive value is the version
// the primary acknowledged, which a replica must reproduce exactly — a
// write at or below the live version is a re-delivery and changes nothing.

// errOversize: the batch would grow the graph past maxGenVertices.
type errOversize struct{ needN int64 }

func (e errOversize) Error() string {
	return fmt.Sprintf("mutation would grow the graph to %d vertices, exceeding the limit of %d", e.needN, maxGenVertices)
}

// errReplaced: the entry a batch was applied against stopped being live
// before the result could be published. Wrapped as "graph %q <this>".
var errReplaced = errors.New("was replaced concurrently; re-fetch and retry")

// installGraph makes e the live graph of its name: settle the version,
// persist the snapshot, and only then publish — an install whose snapshot
// cannot be written is wholly absent (no reader, job or replica ever saw
// it, the graph it would have displaced is untouched) and there is nothing
// to roll back. installed=false with a nil error is a re-delivered shipment
// the live version already covers.
func (s *Server) installGraph(e *graphEntry, at uint64) (installed bool, err error) {
	lock := s.reg.mutationLock(e.name)
	lock.Lock()
	if cur, ok := s.reg.get(e.name); at > 0 && ok && cur.version >= at {
		lock.Unlock()
		return false, nil
	}
	e.version = at
	if at == 0 {
		e.version = s.reg.mint()
	}
	if err := s.persistSnapshot(e); err != nil {
		lock.Unlock()
		s.stats.Persistence.Errors.Add(1)
		return false, fmt.Errorf("persisting graph %q: %w", e.name, err)
	}
	s.reg.publish(e, nil)
	lock.Unlock()
	s.cache.purgeGraph(e.name, e.version) // replacement invalidates prior results
	return true, nil
}

// batchOutcome reports one commitBatch call.
type batchOutcome struct {
	// live is the entry serving the name once the call returns: the newly
	// published one, or the one the batch found when published is false (a
	// fully no-op client batch, or a re-delivered replicated one).
	live      *graphEntry
	published bool
	// added/removed count edits that changed the graph, ignored the no-ops.
	added, removed, ignored int
	// maxCore is the largest maintained core number after the batch.
	maxCore int32
	// warmSeeded names the decompositions re-derived for the new version.
	warmSeeded []string
}

// commitBatch applies one edit batch to name: overlay repair (or, for a
// batch that carries its core numbers, row edits and their install) → mint
// → one WAL frame {version, batch, changed κ}, beside the CSR patch →
// copy-on-write publish → counters, then, with the lock released, warm
// seeding, the purge of the displaced version's cache entries and the
// compaction check.
//
// at == 0 skips a fully no-op batch: the graph is bit-identical, and a
// version bump would purge every cache entry the warm seeder does not
// re-derive (n34, snd, bounded runs) and pay an O(m) snapshot for nothing.
// It appends nothing either. at > 0 publishes whatever the edits did: the
// primary logged this batch at this version, and the version sequence is
// the replication contract.
func (s *Server) commitBatch(name string, batch *store.Batch, at uint64) (batchOutcome, error) {
	// Cheap existence pre-check before creating a per-name mutation lock:
	// without it, requests naming junk graphs would grow the lock map
	// without bound (locks are deliberately retained across versions).
	if _, ok := s.reg.get(name); !ok {
		return batchOutcome{}, unknownGraph(name)
	}
	// Lock ordering matters here: the per-name mutation lock FIRST, the
	// sync slot only once this batch is actually next in line. The other
	// way around, every batch queued on one hot graph would pin a slot
	// while blocked on the lock, starving the sync endpoints of every
	// other graph.
	lock := s.reg.mutationLock(name)
	lock.Lock()
	locked := true
	unlock := func() {
		if locked {
			locked = false
			lock.Unlock()
		}
	}
	defer unlock()
	if at == 0 {
		// Overlay repair, snapshot and warm seeding are graph-sized work on a
		// request goroutine; take a sync slot like the other such endpoints,
		// held across the warm seeding below (which runs after unlock). A
		// replicated batch runs on the puller's one goroutine, which the
		// slots do not count.
		s.acquireSync()
		defer s.releaseSync()
	}

	e, ok := s.reg.get(name)
	if !ok {
		return batchOutcome{}, unknownGraph(name)
	}
	if at > 0 && e.version >= at {
		return batchOutcome{live: e}, nil
	}
	// Resolve and bound the target vertex count before anything mutable
	// happens.
	needN := batchNeedN(e.g.N(), batch)
	if needN > maxGenVertices {
		return batchOutcome{}, errOversize{needN}
	}
	// The overlay is this batch's own: nothing sees it until the publish.
	dyn := s.overlayFor(e)
	// needN <= maxGenVertices, so the int conversion is safe.
	added, removed, ignored, err := applyBatch(dyn, batch, int(needN))
	if err != nil {
		return batchOutcome{}, fmt.Errorf("graph %q version %d: %w", name, at, err)
	}
	out := batchOutcome{
		live: e, added: added, removed: removed, ignored: ignored,
		maxCore: maxOf(dyn.CoreNumbers()), warmSeeded: []string{},
	}
	if at == 0 && added == 0 && removed == 0 && dyn.N() == e.g.N() {
		s.stats.Mutations.Ignored.Add(int64(ignored))
		return out, nil
	}

	version := at
	if at == 0 {
		version = s.reg.mint()
	}
	if !batch.HasCores {
		// The repair's changes ride in the frame: whoever applies it next
		// installs them.
		batch = &store.Batch{Edits: batch.Edits, GrowTo: batch.GrowTo, Cores: convertCores[store.CoreChange](dyn.ChangedCores()), HasCores: true}
	}
	// Copy-on-write publication: the overlay patches the rows this batch
	// touched into a fresh immutable CSR and hands over its κ; it is not
	// used again, so the new entry owns both. In-flight work on the old
	// version keeps its graph. The patch runs while the frame's fsync waits
	// on the disk, and the publish waits for both. A failed append leaves
	// nothing to roll back: the overlay was this batch's own (its patch is
	// dropped) and the log has no trace of the batch.
	patched := make(chan *graph.Graph, 1)
	go func() { patched <- dyn.Static() }()
	n, err := s.store.AppendBatch(name, version, batch)
	if err != nil {
		s.stats.Persistence.Errors.Add(1)
		return batchOutcome{}, fmt.Errorf("writing batch to the WAL: %w", err)
	}
	ne := &graphEntry{
		name:      name,
		g:         <-patched,
		version:   version,
		source:    e.source,
		created:   e.created,
		coreKappa: dyn.CoreNumbers(),
		mutations: e.mutations + 1,
	}
	if n > 0 { // the null store writes nothing
		s.stats.Persistence.WALAppends.Add(1)
		s.stats.Persistence.WALBytes.Add(int64(n))
	}
	if !s.reg.publish(ne, e) {
		// Defensive: uploads and deletes hold this same lock, so a
		// concurrent replacement should be impossible — but if it ever
		// happens, our edits are against a dead snapshot and must not be
		// published (replay would still apply the logged batch).
		return batchOutcome{}, fmt.Errorf("graph %q %w", name, errReplaced)
	}
	s.stats.Mutations.Batches.Add(1)
	s.stats.Mutations.Applied.Add(int64(added + removed))
	s.stats.Mutations.Ignored.Add(int64(ignored))
	out.live, out.published = ne, true

	// Warm-seed the new version's cache from the old version's results
	// OUTSIDE the mutation lock — the next batch of this name must not queue
	// behind graph-sized reconvergence — then purge the now-stale entries
	// (the seeds carry the new version and survive the purge).
	unlock()
	out.warmSeeded = s.warmSeed(e, ne, added)
	s.cache.purgeGraph(name, ne.version)
	s.maybeCompact(name)
	return out, nil
}

// dropGraph removes name from the registry and the store. A store failure
// is reported after the fact: the graph is already gone from memory.
func (s *Server) dropGraph(name string) error {
	// Existence pre-check before creating a per-name mutation lock (same
	// rationale as commitBatch: junk names must not allocate locks).
	if _, ok := s.reg.get(name); !ok {
		return unknownGraph(name)
	}
	lock := s.reg.mutationLock(name)
	lock.Lock()
	e, ok := s.reg.delete(name)
	var storeErr error
	if ok {
		storeErr = s.store.Delete(name)
	}
	lock.Unlock()
	if !ok {
		return unknownGraph(name)
	}
	s.cache.purgeGraph(name, e.version+1)
	if storeErr != nil {
		s.stats.Persistence.Errors.Add(1)
		return fmt.Errorf("graph %q removed from memory, but deleting its persisted data failed: %w", name, storeErr)
	}
	return nil
}

// overlayFor returns a mutable overlay of e for one batch (or one replay)
// to be applied to. Over e's own CSR that costs a copy of κ, so none is kept
// between batches; the overlay needs exact core numbers to repair
// incrementally, and takes the cheapest source that has them: the
// maintained or recovered κ, a cached exact decomposition, and only then a
// cold peel.
func (s *Server) overlayFor(e *graphEntry) *dynamic.Graph {
	if e.coreKappa != nil {
		return dynamic.FromStaticCores(e.g, e.coreKappa)
	}
	if res := s.convergedResult(e, nucleus.FamilyCore); res != nil {
		return dynamic.FromStaticCores(e.g, res.Kappa)
	}
	return dynamic.FromStatic(e.g)
}

// batchNeedN resolves the vertex count a batch requires: the current n,
// the explicit growTo, and one past the largest added endpoint. int64
// arithmetic so an add naming vertex 2^31-1 overflows nothing on 32-bit
// platforms and trips the ceiling check at the call site. Self-loop adds
// are rejected at apply time and must not grow the graph either.
func batchNeedN(n int, b *store.Batch) int64 {
	needN := int64(n)
	if int64(b.GrowTo) > needN {
		needN = int64(b.GrowTo)
	}
	for _, ed := range b.Edits {
		if ed.Op != store.OpAdd || ed.U == ed.V {
			continue
		}
		if v := int64(ed.U) + 1; v > needN {
			needN = v
		}
		if v := int64(ed.V) + 1; v > needN {
			needN = v
		}
	}
	return needN
}

// applyBatch grows the overlay and applies one batch to it. A batch that
// carries its core numbers has its rows edited and the values installed
// (SetCores refuses a list that does not fit the graph); any other is
// repaired edit by edit. The no-op semantics (duplicate adds, absent or
// out-of-range removes, self-loops) are shared verbatim between
// commitBatch and WAL replay, and between the two kinds of edit — recovery
// MUST reproduce the exact decisions the acknowledged write made or
// replayed graphs would drift from it.
func applyBatch(dyn *dynamic.Graph, b *store.Batch, needN int) (added, removed, ignored int, err error) {
	dyn.Grow(needN)
	insert, remove := dyn.InsertEdge, dyn.RemoveEdge
	if b.HasCores {
		insert, remove = dyn.AddRows, dyn.RemoveRows
	}
	for _, ed := range b.Edits {
		switch {
		case ed.Op == store.OpAdd && insert(ed.U, ed.V):
			added++
		case ed.Op == store.OpRemove && remove(ed.U, ed.V):
			removed++
		default:
			ignored++
		}
	}
	if b.HasCores {
		err = dyn.SetCores(convertCores[dynamic.CoreChange](b.Cores))
	}
	return added, removed, ignored, err
}

// convertCores copies a core-number list between the repair's type and
// the log's, which have one layout.
func convertCores[To, From ~struct {
	V     uint32
	Kappa int32
}](from []From) []To {
	to := make([]To, len(from))
	for i, c := range from {
		to[i] = To(c)
	}
	return to
}

func maxOf(kappa []int32) int32 {
	m := int32(0)
	for _, k := range kappa {
		if k > m {
			m = k
		}
	}
	return m
}
