package server

import (
	"net/http"
	"strconv"

	"nucleus/internal/dynamic"
	"nucleus/internal/store"
)

// ---------------------------------------------------------------------------
// Incremental edge mutations (POST /graphs/{name}/edges).
//
// The paper's premise (§1.2) is that κ indices depend only on local
// structure, so an edited graph should never pay a cold full-graph
// decomposition — nor, for core, any graph-sized recomputation at all. The
// mutation path exploits that three times:
//
//   - core numbers are repaired *during* the batch by the subcore
//     traversal of package dynamic (each edit touches only the κ=k region
//     around the edge), over an overlay that holds the previous version's
//     CSR plus private copies of only the rows the batch touches;
//   - that maintained κ, exact for the new graph, is published as the new
//     version's core answer as it stands: the (core, and, 0) cache entry,
//     what GET /core serves and what the snapshot persists are one array
//     (warmRecoverCore, persist.go), and no sweep re-derives it;
//   - truss has no maintained counterpart, so its cache entry for the
//     republished version is warm-seeded from the previous version's cached
//     κ via the Lemma 2 warm start (old κ + insert count is a valid upper
//     start) and reconverges in a few sweeps instead of from the degrees.
//
// Publication is copy-on-write: the overlay patches the touched rows into
// a fresh immutable CSR (graph.Patch — bulk copies of the untouched
// stretches, no edge-list rebuild) installed under a bumped version, so
// jobs in flight on the previous version keep their consistent snapshot.
//
// Durability (package store): commitBatch (write.go) appends each batch to
// the graph's WAL BEFORE it touches the overlay, and a commit frame carrying
// the published version after the publish succeeds — both under the
// per-name mutation lock, so the pair is adjacent in the log. Cache seeding
// runs after the lock is released: the truss reconvergence is work over the
// whole graph, and serializing it with the next batch would turn the
// mutation path into a decomposition queue (regression tests:
// TestConcurrentMutatorsWarmSeed, TestWarmSeedHoldsNoMutationLock).

// edgeOp is one edit of a mutation batch.
type edgeOp struct {
	// Op is "add" or "remove".
	Op string `json:"op"`
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
}

// mutateRequest is the JSON body of POST /graphs/{name}/edges.
type mutateRequest struct {
	Edits []edgeOp `json:"edits"`
	// GrowTo optionally raises the vertex count beyond the largest edit
	// endpoint (for trailing isolated vertices). Added edges grow the
	// graph implicitly.
	GrowTo int `json:"growTo"`
}

// mutateResponse reports one applied batch.
type mutateResponse struct {
	Graph   string `json:"graph"`
	Version uint64 `json:"version"`
	N       int    `json:"n"`
	M       int64  `json:"m"`
	// Added/Removed count edits that changed the graph; Ignored counts
	// no-ops (duplicate adds, absent removes, self-loops, out-of-range
	// removes).
	Added   int `json:"added"`
	Removed int `json:"removed"`
	Ignored int `json:"ignored"`
	// MaxCore is the maximum maintained core number after the batch.
	MaxCore int32 `json:"maxCore"`
	// WarmSeeded lists the decompositions whose cache entries for the new
	// version were installed without a cold run (core: the maintained κ;
	// truss: a warm-started reconvergence).
	WarmSeeded []string `json:"warmSeeded"`
}

func (s *Server) handleMutateGraph(w http.ResponseWriter, r *http.Request) {
	if !s.admitWrite(w, r) {
		return
	}
	name := r.PathValue("name")
	var req mutateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Edits) == 0 {
		writeError(w, http.StatusBadRequest, "edits must be non-empty")
		return
	}
	// Validate and convert to the WAL batch representation up front: the
	// durable log must never contain an op the replayer cannot interpret.
	batch := &store.Batch{Edits: make([]store.BatchOp, len(req.Edits))}
	if req.GrowTo > 0 {
		batch.GrowTo = req.GrowTo
	}
	for i, ed := range req.Edits {
		switch ed.Op {
		case "add":
			batch.Edits[i] = store.BatchOp{Op: store.OpAdd, U: ed.U, V: ed.V}
		case "remove":
			batch.Edits[i] = store.BatchOp{Op: store.OpRemove, U: ed.U, V: ed.V}
		default:
			writeError(w, http.StatusBadRequest, "edit %d: unknown op %q (want add or remove)", i, ed.Op)
			return
		}
	}

	out, err := s.commitBatch(name, batch, 0)
	if err != nil {
		writeError(w, writeStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Graph:      name,
		Version:    out.live.version,
		N:          out.live.g.N(),
		M:          out.live.g.M(),
		Added:      out.added,
		Removed:    out.removed,
		Ignored:    out.ignored,
		MaxCore:    out.maxCore,
		WarmSeeded: out.warmSeeded,
	})
}

// convergedResult returns a cached converged full-budget decomposition of
// the entry for dec under any algorithm, preferring the local algorithms
// (whose Sweeps field makes the warm saving measurable). peek, not get: an
// internal scan must not reorder the LRU the way client traffic does.
func (s *Server) convergedResult(e *graphEntry, dec string) *decompResult {
	for _, alg := range []string{"and", "snd", "peel"} {
		if res, ok := s.cache.peek(keyOf(e, dec, alg, 0)); ok && res.Converged {
			return res
		}
	}
	return nil
}

// warmSeed installs the new version's core/truss cache entries instead of
// letting the next request pay a cold run. Seeding happens only for
// decompositions the previous version had a cached converged result for
// (demonstrated interest), and lands under the (dec, "and", 0) key — exactly
// the key the default job/hierarchy path consults — through fill: ne may
// itself be replaced or deleted while the truss run executes. Returns the
// seeded decomposition names.
//
// Core costs nothing to seed (warmRecoverCore): the overlay's incrementally
// maintained κ is already exact for the NEW graph and is installed as it
// stands. Truss has no maintained counterpart, so it runs a Lemma 2 warm
// start from the previous version's κ bumped by the insert count (each
// insertion raises truss numbers by at most one).
func (s *Server) warmSeed(old, ne *graphEntry, inserts int) []string {
	seeded := []string{} // non-nil so the response field is [] rather than null
	if seedRes := s.convergedResult(old, "core"); seedRes != nil {
		s.warmRecoverCore(ne, seedRes)
		seeded = append(seeded, "core")
	}
	if seedRes := s.convergedResult(old, "truss"); seedRes != nil {
		inst := s.instanceOf(ne, "truss")
		lr := dynamic.WarmTrussNumbersOn(inst, ne.g, old.g, seedRes.Kappa, inserts, s.cfg.JobThreads)
		s.recordWarm(seedRes, lr.Sweeps)
		s.fill(keyOf(ne, "truss", "and", 0), localResult(lr, inst))
		seeded = append(seeded, "truss")
	}
	return seeded
}

// recordWarm counts one decomposition installed for a new version without a
// cold run: the sweeps spent on it (none for core, whose maintained κ is
// installed as it stands) and — when the previous version's result came
// from a sweep-reporting local algorithm — the sweeps saved relative to it.
func (s *Server) recordWarm(seed *decompResult, sweeps int) {
	s.stats.Mutations.WarmRuns.Add(1)
	s.stats.Mutations.WarmSweeps.Add(int64(sweeps))
	if seed != nil && seed.Sweeps > sweeps {
		s.stats.Mutations.SweepsSaved.Add(int64(seed.Sweeps - sweeps))
	}
}

// ---------------------------------------------------------------------------
// Maintained core-number point lookups (GET /graphs/{name}/core?v=…).

// coreLookupResponse answers a point lookup of core numbers.
type coreLookupResponse struct {
	Graph   string `json:"graph"`
	Version uint64 `json:"version"`
	// Maintained is true when the answer came straight from the κ array
	// kept up to date by the mutation path (O(1) per vertex); false when
	// it was served from a (possibly freshly computed) cached full
	// decomposition.
	Maintained  bool     `json:"maintained"`
	Vertices    []uint32 `json:"vertices"`
	CoreNumbers []int32  `json:"coreNumbers"`
}

func (s *Server) handleCoreLookup(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("name"))
		return
	}
	raw := r.URL.Query()["v"]
	if len(raw) == 0 {
		writeError(w, http.StatusBadRequest, "at least one v=<vertex id> parameter is required")
		return
	}
	vertices := make([]uint32, 0, len(raw))
	for _, sv := range raw {
		v, err := strconv.ParseUint(sv, 10, 32)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid v=%q: want a vertex id", sv)
			return
		}
		if int(v) >= e.g.N() {
			writeError(w, http.StatusBadRequest, "vertex %d out of range (n=%d)", v, e.g.N())
			return
		}
		vertices = append(vertices, uint32(v))
	}

	kappa := e.coreKappa
	maintained := kappa != nil
	if !maintained {
		// Never-mutated graph: fall back to the cache-backed decomposition
		// path (cheap after the first request).
		q, _ := s.newQuery(e, "core", "and", 0, 0) // constants: cannot fail
		res, _, err := s.resolve(q)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		kappa = res.Kappa
	}
	out := coreLookupResponse{
		Graph:       e.name,
		Version:     e.version,
		Maintained:  maintained,
		Vertices:    vertices,
		CoreNumbers: make([]int32, len(vertices)),
	}
	for i, v := range vertices {
		out.CoreNumbers[i] = kappa[v]
	}
	writeJSON(w, http.StatusOK, out)
}
