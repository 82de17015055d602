// Package store is the durable persistence layer of nucleusd. It splits a
// graph's state the way HTAP-style systems split theirs: an authoritative
// binary *snapshot* (the full CSR graph plus metadata and, when known, the
// maintained exact core numbers) and an append-only *write-ahead log* of
// edge-mutation batches applied since that snapshot. Derived state — flat
// s-clique indices, decomposition caches, hierarchies — is never persisted:
// it is rebuilt (warm-started, not cold) from the recovered κ arrays.
//
// The WAL holds one frame per batch, {version, batch}, appended and
// synced after the batch is applied to a private overlay and its version
// minted, and before that version is published. Nothing sees a batch
// before its frame is durable, so a crash or a failed append anywhere in
// the window leaves exactly the acknowledged state: a batch whose append
// did not return was never published or acknowledged, and one whose
// append did replays at its exact version.
//
// Two backends implement Store: the filesystem directory store (OpenFS) and
// the in-memory null store (Null), which discards everything and keeps the
// serving layer's historical restart-loses-all behavior for tests and
// deployments that do not pass -data-dir.
package store

import (
	"errors"
	"time"

	"nucleus/internal/graph"
)

// ErrNotFound reports that a name has no persisted snapshot.
var ErrNotFound = errors.New("store: graph not found")

// ErrFailed reports a store that no longer knows what is durable: a
// snapshot's rename landed but the directory sync after it failed. Every
// later write returns it until a restart's recovery reads the disk.
var ErrFailed = errors.New("store: failed, writes are refused until restart")

// Meta is the registry metadata persisted alongside a graph snapshot.
type Meta struct {
	// Version is the registry version the snapshot captures. Recovery
	// restores the graph at exactly this version (plus any committed WAL
	// batches, each carrying its own published version).
	Version uint64
	// Source records how the graph entered the registry ("upload:edgelist",
	// "generator:gnm", ...).
	Source string
	// CreatedAt is the registry creation time of the lineage.
	CreatedAt time.Time
	// Mutations is the number of edit batches applied to reach Version.
	Mutations int
}

// Snapshot is one durable graph snapshot: the immutable CSR graph, its
// registry metadata, and optionally the exact maintained core numbers.
type Snapshot struct {
	Meta  Meta
	Graph *graph.Graph
	// Kappa is the exact per-vertex core-number array maintained by the
	// mutation path, or nil when the lineage has never been mutated (and no
	// exact κ is known). When present, recovery seeds the dynamic overlay
	// and the decomposition cache from it instead of peeling cold.
	Kappa []int32
}

// Edit operations of a WAL batch.
const (
	OpAdd byte = iota
	OpRemove
)

// BatchOp is one edge edit of a mutation batch.
type BatchOp struct {
	Op   byte // OpAdd or OpRemove
	U, V uint32
}

// Batch is one edge-mutation batch as logged to the WAL, mirroring the
// body of POST /graphs/{name}/edges.
type Batch struct {
	Edits []BatchOp
	// GrowTo optionally raises the vertex count beyond the largest edit
	// endpoint; 0 means no explicit growth.
	GrowTo int
}

// CommittedBatch is a replayable WAL batch together with the registry
// version that was published after applying it.
type CommittedBatch struct {
	Batch
	Version uint64
}

// Store is a pluggable persistence backend for the graph registry. All
// methods are safe for concurrent use; operations on the same name are
// serialized internally. Callers (the serving layer) additionally hold the
// per-name mutation lock from a batch's apply through its AppendBatch to
// its publish, so frames land in version order and a snapshot is never
// written between a batch's append and its publish.
type Store interface {
	// SaveSnapshot atomically persists snap as the authoritative snapshot
	// of name and truncates its WAL (the snapshot already contains every
	// previously appended batch).
	SaveSnapshot(name string, snap *Snapshot) error
	// AppendBatch durably appends one applied batch at the version it is
	// about to be published at, returning the bytes written. It returns
	// once the frame is synced; a failed append leaves no trace.
	AppendBatch(name string, version uint64, b *Batch) (int, error)
	// Load reads the snapshot of name and the batches appended since it
	// was written, in append order. A corrupt WAL tail (torn write) is
	// truncated at the last intact frame; a WAL of another format is an
	// error wrapping ErrWALFormat, and the file is left as it is.
	Load(name string) (*Snapshot, []CommittedBatch, error)
	// List returns the names of all persisted graphs.
	List() ([]string, error)
	// Delete removes every trace of name.
	Delete(name string) error
	// WALSize returns the current byte size of name's WAL (0 if none), for
	// compaction scheduling. It must be cheap.
	WALSize(name string) int64
	// Durable reports whether the backend actually persists anything. The
	// serving layer uses it to skip recovery and compaction on the null
	// store and to report persistence as disabled in /stats.
	Durable() bool
	// Close releases backend resources. The store must not be used after.
	Close() error
}

// ReplicationSource is an optional capability a durable Store may
// implement: raw byte-range access to the persisted images, used by the
// replication endpoints to ship a graph's state to pulling replicas
// without re-encoding. SnapshotImage returns the complete snapshot file
// (decodable with DecodeSnapshot); WALImage returns up to limit bytes of
// the WAL from offset (limit <= 0 means no bound) plus the log's total
// size. The serving layer type-asserts for it like ThreadedLoader.
type ReplicationSource interface {
	SnapshotImage(name string) ([]byte, error)
	WALImage(name string, offset, limit int64) ([]byte, int64, error)
}

// ThreadedLoader is an optional capability a Store may implement: Load
// with the CPU-bound part of snapshot decoding (CSR construction) fanned
// across threads. The result is bit-identical to Load at every thread
// count. The serving layer type-asserts for it at startup recovery; plain
// Load remains the portable path, so the public Store surface is unchanged.
type ThreadedLoader interface {
	LoadThreads(name string, threads int) (*Snapshot, []CommittedBatch, error)
}

// nullStore discards everything: the default backend when no data
// directory is configured, and a convenient stand-in for tests.
type nullStore struct{}

var nullSingleton Store = nullStore{}

// Null returns the shared no-op Store.
func Null() Store { return nullSingleton }

func (nullStore) SaveSnapshot(string, *Snapshot) error            { return nil }
func (nullStore) AppendBatch(string, uint64, *Batch) (int, error) { return 0, nil }
func (nullStore) Load(string) (*Snapshot, []CommittedBatch, error) {
	return nil, nil, ErrNotFound
}
func (nullStore) List() ([]string, error) { return nil, nil }
func (nullStore) Delete(string) error     { return nil }
func (nullStore) WALSize(string) int64    { return 0 }
func (nullStore) Durable() bool           { return false }
func (nullStore) Close() error            { return nil }
