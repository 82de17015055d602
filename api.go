package nucleus

import (
	"io"

	"nucleus/internal/cliques"
	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	"nucleus/internal/metrics"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/query"
	"nucleus/internal/replica"
	"nucleus/internal/server"
	"nucleus/internal/store"
)

// ---------------------------------------------------------------------------
// Graph construction and IO.

// BuildGraph constructs a graph from an edge list. Self-loops are removed
// and duplicate edges collapsed. Pass n = -1 to infer the vertex count;
// with n >= 0, an edge with an endpoint at or past n panics on the calling
// goroutine with "graph: edge {u,v} out of range (n=…)". Dense edge ids
// (the cells of k-truss) are assigned on first use, so a graph only ever
// decomposed by k-core never pays for them.
func BuildGraph(n int, edges [][2]uint32) *Graph { return graph.Build(n, edges) }

// BuildGraphThreads is BuildGraph with up to threads workers. The result is
// bit-identical to BuildGraph at every thread count, and an out-of-range
// edge panics on the caller's goroutine, never inside a worker, at every
// thread count too.
func BuildGraphThreads(n int, edges [][2]uint32, threads int) *Graph {
	return graph.BuildThreads(n, edges, threads)
}

// LoadEdgeList reads a whitespace-separated edge-list file ('#'/'%'
// comments allowed).
func LoadEdgeList(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// ReadEdgeList parses an edge list from a reader.
func ReadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// ReadMatrixMarket parses a MatrixMarket coordinate file as an undirected
// graph (entry values ignored; 1-based indices converted).
func ReadMatrixMarket(r io.Reader) (*Graph, error) { return graph.ReadMatrixMarket(r) }

// ReadMETIS parses a METIS graph file (vertex and edge weights skipped).
func ReadMETIS(r io.Reader) (*Graph, error) { return graph.ReadMETIS(r) }

// Generators, re-exported for the examples and experiment drivers.
var (
	// GnM is the Erdős–Rényi G(n,m) generator.
	GnM = graph.GnM
	// BarabasiAlbert is the preferential-attachment generator.
	BarabasiAlbert = graph.BarabasiAlbert
	// RMAT is the recursive-matrix generator.
	RMAT = graph.RMAT
	// PlantedCommunities generates dense communities with a sparse backbone.
	PlantedCommunities = graph.PlantedCommunities
	// PowerLawCluster is the Holme–Kim triangle-rich generator.
	PowerLawCluster = graph.PowerLawCluster
	// WattsStrogatz is the small-world generator.
	WattsStrogatz = graph.WattsStrogatz
)

// ---------------------------------------------------------------------------
// Hierarchy.

// Forest is the nucleus hierarchy: k-(r,s) nuclei as nodes, children nested
// inside parents, listed by descending K, then ascending smallest own cell.
type Forest = hierarchy.Forest

// HierarchyNode identifies one nucleus in a Forest.
type HierarchyNode = hierarchy.Node

// BuildHierarchy materializes the nucleus forest of a decomposition from its
// κ indices; a wrong length or a negative label is a "hierarchy:" panic.
func BuildHierarchy(g *Graph, dec Decomposition, kappa []int32) *Forest {
	return hierarchy.Build(newInstance(g, dec, libraryIndexBudget, 1), kappa)
}

// MaxNucleusCells returns the cells of the maximum nucleus of the given
// cell: the maximal S-connected set of cells with κ >= κ(cell) around it
// (the paper's "maximum core of a vertex", generalized).
func MaxNucleusCells(g *Graph, dec Decomposition, kappa []int32, cell int32) []int32 {
	return hierarchy.MaxNucleusOf(newInstance(g, dec, libraryIndexBudget, 1), kappa, cell)
}

// NucleiAt returns the cell sets of all k-(r,s) nuclei at threshold k: the
// S-connected components of the cells with κ >= k.
func NucleiAt(g *Graph, dec Decomposition, kappa []int32, k int32) [][]int32 {
	return hierarchy.KNucleusSubgraphs(newInstance(g, dec, libraryIndexBudget, 1), kappa, k)
}

// CellsToVertices maps a cell set of the given decomposition to its sorted
// distinct vertex set. It counts no s-cliques: truss and (3,4) cells are
// read off instances built without s-degrees, which CellVertices never reads.
func CellsToVertices(g *Graph, dec Decomposition, cells []int32) []uint32 {
	switch dec {
	case KTruss:
		return hierarchy.CellsToVertices(&inucleus.Truss{G: g}, cells)
	case Nucleus34:
		return hierarchy.CellsToVertices(&inucleus.N34{G: g, Idx: cliques.BuildTriangleIndex(g)}, cells)
	}
	return hierarchy.CellsToVertices(newInstance(g, dec, libraryIndexBudget, 1), cells)
}

// KCoreSubgraph extracts the induced subgraph of the classic k-core (all
// vertices with core number >= k) plus the old→new vertex mapping. kappa
// must come from a KCore decomposition.
func KCoreSubgraph(g *Graph, kappa []int32, k int32) (*Graph, []int32) {
	return hierarchy.KCoreSubgraph(g, kappa, k)
}

// ---------------------------------------------------------------------------
// Query-driven estimation.

// QueryEstimate is a query-driven estimation result.
type QueryEstimate = query.Estimate

// EstimateCoreNumbers estimates the core numbers of the query vertices
// using only the cells within `hops` hops and at most maxSweeps local
// iterations (0 = until the restricted computation converges). Estimates
// are upper bounds that tighten as hops grow.
func EstimateCoreNumbers(g *Graph, queries []uint32, hops, maxSweeps int) *QueryEstimate {
	return query.CoreNumbers(g, queries, hops, maxSweeps)
}

// EstimateTrussNumbers estimates the truss numbers of the query edges using
// only the edges within `hops` hops of their endpoints.
func EstimateTrussNumbers(g *Graph, queryEdges [][2]uint32, hops, maxSweeps int) *QueryEstimate {
	return query.TrussNumbers(g, queryEdges, hops, maxSweeps)
}

// ---------------------------------------------------------------------------
// Quality metrics.

// KendallTau computes the tie-aware Kendall τ-b correlation between two κ/τ
// assignments; 1.0 means identical orderings. This is the similarity score
// of the paper's convergence plots.
func KendallTau(a, b []int32) float64 { return metrics.KendallTauB(a, b) }

// ExactFraction is the fraction of cells whose approximate index equals the
// exact one.
func ExactFraction(approx, exact []int32) float64 {
	return metrics.ExactFraction(approx, exact)
}

// DefaultThreads returns a sensible worker count for parallel runs.
func DefaultThreads() int { return localhi.DefaultThreads() }

// ---------------------------------------------------------------------------
// Anytime progress.

// Progress publishes copy-on-write τ snapshots with per-sweep
// convergence metrics while a local decomposition runs: poll Latest,
// stream via Subscribe, and wait on Done. Set it on Options.Progress.
// See docs/ANYTIME.md for the anytime model.
type Progress = localhi.Progress

// ProgressSnapshot is one immutable anytime observation: the τ array
// copy plus max τ, τ sum, the per-sweep update rate and the fraction of
// stable cells — the paper's ground-truth-free convergence signals.
type ProgressSnapshot = localhi.Snapshot

// NewProgress constructs a progress publisher that snapshots every k-th
// sweep (k <= 1 means every sweep; the final sweep always publishes).
func NewProgress(every int) *Progress { return localhi.NewProgress(every) }

// ---------------------------------------------------------------------------
// Serving layer (nucleusd).

// ServerConfig configures the nucleusd HTTP serving layer: worker pool
// size, job queue depth, LRU result cache capacity and upload limits.
type ServerConfig = server.Config

// Server is the nucleusd HTTP serving layer: a graph registry with
// incremental edge mutations (core numbers repaired locally and cache
// entries warm-started across versions), an async decomposition job queue
// with an LRU result cache, and synchronous query-driven estimation,
// core-number lookup, hierarchy and densest-subgraph endpoints. It
// implements http.Handler; see docs/API.md for the endpoint reference.
type Server = server.Server

// NewServer constructs a Server and starts its worker pool. If the config
// carries a durable Store, construction first replays persisted snapshots
// and WALs, recovering every graph at its exact pre-restart version.
// Mount the Server on any http.Server, or run the cmd/nucleusd binary.
// Call Close to drain in-flight jobs on shutdown.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// GraphStore is the pluggable persistence backend of the serving layer:
// versioned binary graph snapshots plus a write-ahead log of edge-mutation
// batches. Set it on ServerConfig.Store to make nucleusd durable.
type GraphStore = store.Store

// OpenFSStore opens (creating as needed) the filesystem-backed GraphStore
// rooted at dir — one directory per graph holding its current snapshot and
// WAL. See docs/OPERATIONS.md for the layout and crash-consistency
// guarantees.
func OpenFSStore(dir string) (GraphStore, error) { return store.OpenFS(dir) }

// NullGraphStore returns the no-op GraphStore: nothing is persisted and
// nothing is recovered. It is the default when ServerConfig.Store is nil.
func NullGraphStore() GraphStore { return store.Null() }

// ReplicationConfig configures a node's place in a replicated fleet
// (docs/REPLICATION.md): its role, the primary a replica pulls from,
// the pull cadence and the starting cluster generation. Set it on
// ServerConfig.Replication; the zero value is a standalone node.
type ReplicationConfig = server.ReplicationConfig

// Replication roles for ReplicationConfig.Role.
const (
	RoleStandalone = replica.RoleStandalone
	RolePrimary    = replica.RolePrimary
	RoleReplica    = replica.RoleReplica
)
