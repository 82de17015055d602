// Package replica implements the WAL-shipping side of nucleusd's
// primary/replica split (docs/REPLICATION.md) — the Polynesia design
// transplanted to graphs: an update-optimized primary absorbs mutation
// batches, analytics-optimized read replicas serve decompose/query/
// anytime traffic, and consistency flows through log shipping.
//
// The transport is pull-based HTTP against the primary's /replication
// endpoints: a replica polls the manifest (per-graph version + WAL
// size), fetches byte ranges of each graph's write-ahead log, decodes
// them incrementally with store.WALScanner, and applies every committed
// batch — through the same durable BeginBatch/CommitBatch path a
// primary uses, so a replica is itself crash-recoverable and
// promotable. When the log cannot be extended onto the local state
// (first contact, compaction reset, corrupt frame, or a WAL whose
// header generation is newer than the local graph) the replica falls
// back to a full snapshot resync and re-tails the fresh log.
//
// Failover safety rests on the cluster generation stamped on every
// replication response and proxied write: a pull from a source whose
// generation is below the replica's own is rejected wholesale
// (ErrStaleSource), which is what fences a deposed primary that
// resurrects and still believes it leads; a source with a NEWER
// generation is adopted, which is how surviving replicas converge on a
// freshly promoted primary's epoch.
package replica

import (
	"errors"

	"nucleus/internal/store"
)

// HTTP protocol constants shared by the primary's replication handlers
// (internal/server), the puller, and the router.
const (
	// GenerationHeader carries the sender's cluster generation: stamped
	// by the router on proxied writes (fencing) and by nucleusd on every
	// /replication response (stale-source detection).
	GenerationHeader = "X-Nucleus-Generation"
	// WALSizeHeader carries the total WAL byte size on /replication/wal
	// responses, so the puller knows whether more bytes remain and
	// detects a compaction reset (size below its offset).
	WALSizeHeader = "X-Nucleus-Wal-Size"
)

// Node roles.
const (
	RoleStandalone = "standalone"
	RolePrimary    = "primary"
	RoleReplica    = "replica"
)

// ErrStaleSource reports a replication source (primary) whose cluster
// generation is older than this node's — a deposed primary that came
// back without learning of the promotion. Nothing from it is applied.
var ErrStaleSource = errors.New("replica: replication source has a stale generation")

// Manifest is the primary's replication catalogue: its generation and
// every persisted graph with the version and WAL extent a replica needs
// to decide what to pull.
type Manifest struct {
	Generation uint64          `json:"generation"`
	Role       string          `json:"role"`
	Graphs     []ManifestGraph `json:"graphs"`
}

// ManifestGraph is one graph's shippable state.
type ManifestGraph struct {
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	WALBytes int64  `json:"walBytes"`
}

// NodeStatus is the GET /replication/status document: the node's role
// and generation, how far its state extends, and — on replicas — the
// puller's progress. The router reads MaxVersion to pick the most
// caught-up replica at promotion time.
type NodeStatus struct {
	Role       string `json:"role"`
	Generation uint64 `json:"generation"`
	// MaxVersion is the highest published registry version on this node
	// (0 when empty): the promotion fitness score.
	MaxVersion uint64 `json:"maxVersion"`
	Graphs     int    `json:"graphs"`
	// Replica-only pull progress (zero values on primaries).
	Status
}

// Applier is what the puller applies shipped state through — the
// serving layer's registry+store, behind an interface so this package
// never imports internal/server. Implementations must be safe for
// concurrent use with live read traffic; batch application must be
// idempotent by version (applied=false for a version at or below the
// graph's current one) and must publish each batch at EXACTLY the
// version the primary acknowledged, so a promoted replica serves the
// identical version history.
type Applier interface {
	// GraphVersion reports the local published version of name, or
	// ok=false when the graph is not present.
	GraphVersion(name string) (uint64, bool)
	// GraphNames lists the locally present graphs (for dropping ones the
	// primary deleted).
	GraphNames() []string
	// InstallSnapshot replaces (or creates) the local graph with a full
	// shipped snapshot, publishing it at snap.Meta.Version. Installs at
	// or below the current local version are skipped by the caller.
	InstallSnapshot(name string, snap *store.Snapshot) error
	// ApplyBatch applies one committed batch at the primary's published
	// version. applied=false reports a duplicate (version already
	// reached) — not an error.
	ApplyBatch(name string, b *store.Batch, version uint64) (applied bool, err error)
	// DropGraph removes a graph the primary no longer has.
	DropGraph(name string) error
}

// Status is a snapshot of the puller's progress and lag. It is embedded
// as is in NodeStatus and in the replication section of /stats, and
// /metrics derives its replication series from the prom and help tags
// (see internal/promtext).
type Status struct {
	// Primary is the source base URL currently being pulled.
	Primary string `json:"primary,omitempty"`
	// LagVersions is Σ over manifest graphs of (primary version − local
	// version) at the end of the last pull: the committed-batch frames
	// not yet applied locally.
	LagVersions int64 `json:"lagVersions" prom:"nucleusd_replication_lag_versions" help:"Committed versions the replica has not yet applied."`
	// LagMs is how long the replica has continuously been behind: 0 when
	// the last pull fully caught up, otherwise the time since the pull
	// that first observed the current lag streak.
	LagMs float64 `json:"lagMs" prom:"nucleusd_replication_lag_ms" help:"How long the replica has continuously been behind."`

	Pulls              int64  `json:"pulls" prom:"nucleusd_replication_pulls_total" help:"Pull cycles completed."`
	PullErrors         int64  `json:"pullErrors" prom:"nucleusd_replication_pull_errors_total" help:"Pull cycles that ended in an error."`
	StalePulls         int64  `json:"stalePulls" prom:"nucleusd_replication_stale_pulls_total" help:"Pulls rejected because the source's generation was stale."`
	BytesPulled        int64  `json:"bytesPulled" prom:"nucleusd_replication_bytes_pulled_total" help:"WAL and snapshot bytes shipped to this replica."`
	SnapshotsInstalled int64  `json:"snapshotsInstalled" prom:"nucleusd_replication_snapshots_installed_total" help:"Full snapshot resyncs applied."`
	BatchesApplied     int64  `json:"batchesApplied" prom:"nucleusd_replication_batches_applied_total" help:"Replicated batches applied."`
	DuplicatesSkipped  int64  `json:"duplicatesSkipped" prom:"nucleusd_replication_duplicates_skipped_total" help:"Replicated batches skipped as duplicates."`
	LastError          string `json:"lastError,omitempty"`
}
