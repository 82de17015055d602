package server

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"strconv"
	"time"

	"nucleus/internal/nucleus"
	"nucleus/internal/replica"
	"nucleus/internal/sched"
	"nucleus/internal/store"
)

// ---------------------------------------------------------------------------
// WAL-shipping replication (docs/REPLICATION.md).
//
// A nucleusd node plays one of three roles. A *standalone* node is the
// historical single-node deployment. A *primary* absorbs every write
// and exposes its persisted images — snapshot files and WAL byte ranges
// — on the /replication endpoints for replicas to pull. A *replica* is
// read-only for clients: a background puller (internal/replica) tails
// the primary's manifest and WALs and applies each committed batch
// through the same WAL-then-publish path the primary's mutation handler
// uses, at EXACTLY the version the primary acknowledged, so a promoted
// replica serves the identical version history with warm κ state and
// its own durable snapshot+WAL (it can in turn be replicated from).
//
// Failover safety is generation fencing: every node carries a cluster
// generation, every /replication response and every router-proxied
// write is stamped with one, and a mismatch is rejected — a write
// stamped with the old generation at a deposed primary answers 409
// (fencedWrites), and a replica refuses to pull from a source whose
// generation is below its own (stalePulls). Promotion bumps the
// generation, which is what retires the old primary's authority.

// ReplicationConfig configures a node's role in a replicated
// deployment. The zero value is a standalone node.
type ReplicationConfig struct {
	// Role is replica.RoleStandalone (default), RolePrimary or
	// RoleReplica. Any other value is treated as standalone.
	Role string
	// Primary is the base URL a replica pulls from (e.g.
	// "http://10.0.0.1:7171"). Required when Role is RoleReplica.
	Primary string
	// Generation is the node's starting cluster generation. Replicas
	// adopt newer generations advertised by their source; promotion sets
	// a higher one explicitly.
	Generation uint64
	// PullInterval is the replica's background pull cadence. 0 defaults
	// to 1s; negative disables the background loop entirely — pulls then
	// happen only via POST /replication/pull, which is what the
	// deterministic cluster tests use.
	PullInterval time.Duration
	// Clock measures replication lag; nil means the wall clock (tests
	// inject sched.NewFakeClock).
	Clock sched.Clock
	// Client performs the replica's HTTP pulls; nil means
	// http.DefaultClient.
	Client *http.Client
}

// normalizedRole maps a configured role string onto the three valid
// roles, defaulting junk to standalone.
func normalizedRole(role string) string {
	switch role {
	case replica.RolePrimary, replica.RoleReplica:
		return role
	}
	return replica.RoleStandalone
}

// startReplication wires the node's role, generation and (for replicas)
// the background puller. Called from New after recovery, before the
// routes exist.
func (s *Server) startReplication() {
	rc := s.cfg.Replication
	s.generation.Store(rc.Generation)
	s.replRole = normalizedRole(rc.Role)
	if s.replRole != replica.RoleReplica || rc.Primary == "" {
		return
	}
	s.puller = replica.NewPuller(replica.Config{
		Primary:         rc.Primary,
		Applier:         replApplier{s},
		Generation:      s.generation.Load,
		AdoptGeneration: s.raiseGeneration,
		Clock:           rc.Clock,
		Client:          rc.Client,
		Interval:        rc.PullInterval,
	})
	if rc.PullInterval >= 0 {
		s.pullerRunning = true
		go s.puller.Run()
	}
}

// stopReplication shuts the puller down idempotently (Close may run
// twice, and promotion also detaches it).
func (s *Server) stopReplication() {
	s.replMu.Lock()
	p, running := s.puller, s.pullerRunning
	s.puller, s.pullerRunning = nil, false
	s.replMu.Unlock()
	if p == nil {
		return
	}
	if running {
		p.Stop()
	} else {
		p.StopNoWait()
	}
}

// raiseGeneration lifts the node's generation to at least g (never
// lowers it — a concurrent promotion must win over a pull adopting the
// old source's generation).
func (s *Server) raiseGeneration(g uint64) {
	for {
		cur := s.generation.Load()
		if cur >= g || s.generation.CompareAndSwap(cur, g) {
			return
		}
	}
}

// role returns the node's current replication role.
func (s *Server) role() string {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return s.replRole
}

// admitWrite gates a mutating endpoint behind the replication role and
// the generation fence, writing the refusal itself. Replicas are
// read-only for clients (writes belong on the primary; the router
// enforces that, this is the backstop). A write stamped with a
// generation — the router stamps every proxied one — is admitted only
// when the stamp matches the node's: a deposed primary still serving
// its old generation rejects the new epoch's writes, and late writes
// proxied under the old generation bounce off everyone.
func (s *Server) admitWrite(w http.ResponseWriter, r *http.Request) bool {
	s.replMu.Lock()
	role := s.replRole
	var primary string
	if s.puller != nil {
		primary = s.puller.Primary()
	}
	s.replMu.Unlock()
	if role == replica.RoleReplica {
		writeError(w, http.StatusForbidden,
			"node is a read-only replica (primary: %s); send writes to the primary", orDefault(primary, "unknown"))
		return false
	}
	if stamp := r.Header.Get(replica.GenerationHeader); stamp != "" {
		g, err := strconv.ParseUint(stamp, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid %s header %q: %v", replica.GenerationHeader, stamp, err)
			return false
		}
		if cur := s.generation.Load(); g != cur {
			s.stats.Replication.FencedWrites.Add(1)
			writeError(w, http.StatusConflict,
				"write fenced: stamped generation %d does not match node generation %d", g, cur)
			return false
		}
	}
	return true
}

// nodeStatus assembles the GET /replication/status document.
func (s *Server) nodeStatus() replica.NodeStatus {
	s.replMu.Lock()
	role := s.replRole
	p := s.puller
	s.replMu.Unlock()
	st := replica.NodeStatus{
		Role:       role,
		Generation: s.generation.Load(),
		MaxVersion: s.reg.maxVersion(),
		Graphs:     s.reg.count(),
	}
	if p != nil {
		st.Status = p.Status()
	}
	return st
}

// ---------------------------------------------------------------------------
// Replication HTTP handlers.

// replicationSource resolves the store's raw-image capability, writing
// the refusal when the backend cannot ship state (the null store).
func (s *Server) replicationSource(w http.ResponseWriter) (store.ReplicationSource, bool) {
	src, ok := s.store.(store.ReplicationSource)
	if !ok {
		writeError(w, http.StatusNotImplemented,
			"replication requires a durable store (run nucleusd with -data-dir)")
		return nil, false
	}
	return src, true
}

func (s *Server) stampGeneration(w http.ResponseWriter) {
	w.Header().Set(replica.GenerationHeader, strconv.FormatUint(s.generation.Load(), 10))
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	s.stampGeneration(w)
	writeJSON(w, http.StatusOK, s.nodeStatus())
}

func (s *Server) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.replicationSource(w); !ok {
		return
	}
	man := replica.Manifest{
		Generation: s.generation.Load(),
		Role:       s.role(),
		Graphs:     []replica.ManifestGraph{},
	}
	for _, e := range s.reg.list() {
		man.Graphs = append(man.Graphs, replica.ManifestGraph{
			Name:     e.name,
			Version:  e.version,
			WALBytes: s.store.WALSize(e.name),
		})
	}
	s.stampGeneration(w)
	writeJSON(w, http.StatusOK, man)
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	src, ok := s.replicationSource(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	img, err := src.SnapshotImage(name)
	if err == store.ErrNotFound {
		writeError(w, http.StatusNotFound, "no persisted snapshot for graph %q", name)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading snapshot of %q: %v", name, err)
		return
	}
	s.stampGeneration(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(img)
}

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	src, ok := s.replicationSource(w)
	if !ok {
		return
	}
	name := r.PathValue("name")
	offset, err := queryInt[int64](r, "offset", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := queryInt[int64](r, "limit", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if offset < 0 {
		writeError(w, http.StatusBadRequest, "offset must be non-negative, got %d", offset)
		return
	}
	chunk, size, err := src.WALImage(name, offset, limit)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reading WAL of %q: %v", name, err)
		return
	}
	s.stampGeneration(w)
	w.Header().Set(replica.WALSizeHeader, strconv.FormatInt(size, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(chunk)
}

// promoteRequest is the JSON body of POST /replication/promote: the new
// cluster generation this node leads under. It must exceed the node's
// current generation — that strict increase is the fence that retires
// the deposed primary.
type promoteRequest struct {
	Generation uint64 `json:"generation"`
}

func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	var req promoteRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.replMu.Lock()
	switch {
	case s.replRole == replica.RolePrimary && req.Generation <= s.generation.Load():
		// Idempotent re-promotion (a router retry): already leading at or
		// past this generation.
		s.replMu.Unlock()
		s.stampGeneration(w)
		writeJSON(w, http.StatusOK, s.nodeStatus())
		return
	case s.replRole == replica.RoleStandalone:
		s.replMu.Unlock()
		writeError(w, http.StatusConflict, "standalone node cannot be promoted (start nucleusd with -role)")
		return
	case req.Generation <= s.generation.Load():
		cur := s.generation.Load()
		s.replMu.Unlock()
		writeError(w, http.StatusBadRequest,
			"promotion generation %d must exceed the current generation %d", req.Generation, cur)
		return
	}
	s.replRole = replica.RolePrimary
	p, running := s.puller, s.pullerRunning
	s.puller, s.pullerRunning = nil, false
	s.replMu.Unlock()
	// The generation bump is what fences the old primary; raise it before
	// acknowledging so no post-200 write can be admitted under the old
	// epoch.
	s.raiseGeneration(req.Generation)
	s.stats.Replication.Promotions.Add(1)
	if p != nil {
		// Detach the puller so no late pull from the deposed primary can
		// apply state after this node started accepting writes.
		if running {
			p.Stop()
		} else {
			p.StopNoWait()
		}
	}
	log.Printf("nucleusd: promoted to primary at generation %d", req.Generation)
	s.stampGeneration(w)
	writeJSON(w, http.StatusOK, s.nodeStatus())
}

// repointRequest is the JSON body of POST /replication/repoint: the new
// primary a surviving replica should pull from, and (optionally) the
// new cluster generation to adopt immediately rather than on first
// pull.
type repointRequest struct {
	Primary    string `json:"primary"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleReplRepoint(w http.ResponseWriter, r *http.Request) {
	var req repointRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Primary == "" {
		writeError(w, http.StatusBadRequest, "primary must be non-empty")
		return
	}
	s.replMu.Lock()
	p := s.puller
	role := s.replRole
	s.replMu.Unlock()
	if role != replica.RoleReplica || p == nil {
		writeError(w, http.StatusConflict, "only a replica can be repointed (role: %s)", role)
		return
	}
	p.SetPrimary(req.Primary)
	if req.Generation > 0 {
		s.raiseGeneration(req.Generation)
	}
	log.Printf("nucleusd: repointed replication at %s (generation %d)", req.Primary, s.generation.Load())
	s.stampGeneration(w)
	writeJSON(w, http.StatusOK, s.nodeStatus())
}

// handleReplPull runs one synchronous pull cycle. Operationally it
// forces an immediate catch-up (e.g. right before a planned promotion);
// the deterministic cluster tests use it as their only pull driver,
// with PullInterval < 0 disabling the background loop.
func (s *Server) handleReplPull(w http.ResponseWriter, r *http.Request) {
	s.replMu.Lock()
	p := s.puller
	role := s.replRole
	s.replMu.Unlock()
	if role != replica.RoleReplica || p == nil {
		writeError(w, http.StatusConflict, "only a replica pulls (role: %s)", role)
		return
	}
	err := p.PullOnce(r.Context())
	s.stampGeneration(w)
	status := http.StatusOK
	if err != nil {
		// The error detail is in the status document's lastError; 502
		// distinguishes "pull failed" from "pull clean" for scripts.
		status = http.StatusBadGateway
	}
	writeJSON(w, status, s.nodeStatus())
}

// ---------------------------------------------------------------------------
// The applier: how shipped state enters the serving layer.

// replApplier implements replica.Applier over the server's write
// pipeline (write.go): shipped state enters through the same installGraph /
// commitBatch / dropGraph a client's write runs, called with the version
// the primary acknowledged, so replication application serializes with
// compaction and (after a promotion) with client writes exactly the way
// local mutations do.
type replApplier struct {
	s *Server
}

func (a replApplier) GraphVersion(name string) (uint64, bool) {
	e, ok := a.s.reg.get(name)
	if !ok {
		return 0, false
	}
	return e.version, true
}

func (a replApplier) GraphNames() []string {
	entries := a.s.reg.list()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	return names
}

// InstallSnapshot persists a shipped snapshot locally (a replica must
// itself be crash-recoverable and promotable), publishes it at exactly its
// Meta.Version, and installs the shipped κ as the core cache entry so the
// first read is a hit, not a cold run.
func (a replApplier) InstallSnapshot(name string, snap *store.Snapshot) error {
	e, err := a.s.rebuildEntry(name, snap, nil)
	if err != nil {
		return err
	}
	installed, err := a.s.installGraph(e, snap.Meta.Version)
	if installed && e.coreKappa != nil {
		a.s.warmRecoverCore(e, nil)
	}
	return err
}

// ApplyBatch commits one shipped batch at the version the primary
// published it under. The one policy difference from a client write: the
// primary warm-seeds only decompositions with demonstrated interest, a
// replica seeds core unconditionally — reads land here while writes land
// on the primary, so the first read must not pay a cold run. The overlay's
// maintained κ is that entry as it stands (warmRecoverCore).
func (a replApplier) ApplyBatch(name string, batch *store.Batch, version uint64) (bool, error) {
	out, err := a.s.commitBatch(name, batch, version)
	var oversize errOversize
	switch {
	case errors.Is(err, errUnknownGraph):
		// The puller snapshots before tailing, so this is a deleted-graph
		// race; the next pull cycle re-resolves it.
		return false, fmt.Errorf("replicated batch for %w", err)
	case errors.As(err, &oversize):
		return false, fmt.Errorf("replicated batch would grow graph %q to %d vertices, exceeding the limit of %d", name, oversize.needN, maxGenVertices)
	case err != nil:
		return false, err
	}
	if out.published && !slices.Contains(out.warmSeeded, nucleus.FamilyCore.String()) {
		a.s.warmRecoverCore(out.live, nil)
	}
	return out.published, nil
}

// DropGraph removes a graph the primary no longer has; one already gone
// is not an error.
func (a replApplier) DropGraph(name string) error {
	if err := a.s.dropGraph(name); !errors.Is(err, errUnknownGraph) {
		return err
	}
	return nil
}
