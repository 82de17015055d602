package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nucleus/internal/densest"
	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// graphEntry is one named graph in the registry.
type graphEntry struct {
	name string
	g    *graph.Graph
	// version is a process-global monotonic id assigned when the entry is
	// created. Cache keys embed it, so replacing a graph under the same
	// name can never serve stale κ arrays: the stale entries simply age
	// out of the LRU.
	version uint64
	source  string
	created time.Time

	// Densest-subgraph results, memoized per method: the graph is
	// immutable, so they never go stale, and holding the mutex across
	// the computation single-flights concurrent requests.
	densestMu   sync.Mutex
	densestMemo map[string]*densest.Result

	// (r,s) instances, memoized per decomposition for the same reason.
	// Building a Truss/N34 instance runs a global triangle / 4-clique
	// count (and, budget permitting, materializes the flat s-clique
	// incidence index); memoizing it makes repeated estimation,
	// decomposition, hierarchy and warm-seed requests pay it once per
	// graph version. Entries are single-flight handles so the expensive
	// build runs outside instMu (a long n34 build must not block a
	// request for an already-memoized core instance). The memo dies with
	// the entry, so replacing or deleting a graph evicts its indexes
	// along with the version (modulo results in the LRU cache that still
	// pin their instance).
	instMu   sync.Mutex
	instMemo map[string]*instFlight

	// coreKappa is the exact core numbers the edit pipeline's subcore repair
	// left when this version was published (nil for versions that have
	// never been mutated), immutable like g. GET /graphs/{name}/core and
	// the version's (core, and, 0) cache entry serve it, the snapshot
	// persists it, and the next batch's overlay starts from it.
	coreKappa []int32
	// mutations counts the edit batches applied to reach this version.
	mutations int
}

// instFlight is one memoized-or-in-progress instance build. done is
// closed once inst (or panicVal, for a build that blew up) is set.
type instFlight struct {
	done     chan struct{}
	inst     nucleus.Instance
	panicVal any
}

// instanceOf returns the entry's (r,s) instance for the normalized
// decomposition name, building it on first use via the budget-aware
// adaptive constructor (nucleus.Build): a flat incidence index when it
// fits Config.IndexMemBudget, the on-the-fly instance otherwise.
// Instances are read-only after construction, so sharing across requests
// is safe. Builds are single-flighted per (entry, dec) but run outside
// instMu, so a slow n34 build never blocks a caller fetching an
// already-memoized instance of another family. The /stats index counters
// account every call: memo/flight hit → reuse, index built → build, no
// index → fallback.
func (s *Server) instanceOf(e *graphEntry, dec string) nucleus.Instance {
	e.instMu.Lock()
	if f, ok := e.instMemo[dec]; ok {
		e.instMu.Unlock()
		<-f.done
		if f.panicVal != nil {
			// The build this caller coalesced onto failed; surface the same
			// panic the builder saw (runDecomposition converts it to a
			// failed job; on the synchronous handler paths it propagates to
			// net/http's per-connection recover, exactly as a panic from
			// this caller's own build would have).
			panic(f.panicVal)
		}
		s.stats.Index.Reuses.Add(1)
		return f.inst
	}
	f := &instFlight{done: make(chan struct{})}
	if e.instMemo == nil {
		e.instMemo = make(map[string]*instFlight, 3)
	}
	e.instMemo[dec] = f
	e.instMu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			// Record the failure for coalesced waiters, forget the flight so
			// a later request can retry, and propagate to this caller.
			f.panicVal = r
			e.instMu.Lock()
			delete(e.instMemo, dec)
			e.instMu.Unlock()
			close(f.done)
			panic(r)
		}
	}()
	fam, err := nucleus.ParseFamily(dec)
	if err != nil {
		panic(fmt.Sprintf("server: unnormalized decomposition %q", dec))
	}
	budget := s.cfg.IndexMemBudget
	if budget < 0 {
		budget = 0 // nucleus.Build: 0 = never index
	}
	inst, rep := nucleus.Build(e.g, fam, budget, s.cfg.JobThreads)
	if rep.Indexed {
		s.stats.Index.Builds.Add(1)
		s.stats.Index.Bytes.Add(rep.IndexBytes)
	} else {
		s.stats.Index.Fallbacks.Add(1)
	}
	f.inst = inst
	close(f.done)
	return inst
}

// densestFor computes (once) and returns the densest subgraph of the
// entry under the given method ("approx" or "maxcore").
func (e *graphEntry) densestFor(method string) *densest.Result {
	e.densestMu.Lock()
	defer e.densestMu.Unlock()
	if r, ok := e.densestMemo[method]; ok {
		return r
	}
	// The memo mutex deliberately single-flights the computation: a second
	// request for the same method must wait for the first result, not
	// duplicate graph-sized work. The lock is per-entry and per-use, never
	// taken by the registry or mutation paths, so nothing else queues on it.
	var r *densest.Result
	if method == "maxcore" {
		r = densest.MaxCore(e.g) //nucleus:lint-ignore lockdiscipline densestMu exists to single-flight exactly this call; no other code path takes it
	} else {
		r = densest.Approx(e.g) //nucleus:lint-ignore lockdiscipline densestMu exists to single-flight exactly this call; no other code path takes it
	}
	if e.densestMemo == nil {
		e.densestMemo = make(map[string]*densest.Result, 2)
	}
	e.densestMemo[method] = r
	return r
}

// registry is the concurrent named-graph store.
type registry struct {
	mu      sync.RWMutex
	graphs  map[string]*graphEntry
	nextVer atomic.Uint64

	// mutMu guards mutLocks, the per-name mutation locks. A name's lock
	// serializes everything that changes its durable or published state:
	// edit batches (WAL batch append → overlay repair → snapshot →
	// republish → WAL commit append), uploads/generates/deletes (snapshot
	// persistence + registry publish), and background WAL compaction.
	// Warm cache seeding deliberately runs OUTSIDE the lock — it is
	// graph-sized reconvergence work, and holding the lock across it would
	// stall every queued mutation of the name behind a cache refill (the
	// seeder re-validates liveness before keeping its entries). Different
	// names mutate concurrently. Locks are retained after delete — a
	// name's lock is a few words, and keeping it avoids racing a deletion
	// against a mutation in flight (commitBatch and dropGraph pre-check
	// existence before creating one, so junk names never allocate).
	mutMu    sync.Mutex
	mutLocks map[string]*sync.Mutex
}

func newRegistry() *registry {
	return &registry{
		graphs:   make(map[string]*graphEntry),
		mutLocks: make(map[string]*sync.Mutex),
	}
}

// mutationLock returns the mutation lock for name, creating it on first
// use.
func (r *registry) mutationLock(name string) *sync.Mutex {
	r.mutMu.Lock()
	defer r.mutMu.Unlock()
	l, ok := r.mutLocks[name]
	if !ok {
		l = &sync.Mutex{}
		r.mutLocks[name] = l
	}
	return l
}

// mint reserves a fresh version. Minting is separate from publishing so an
// upload can persist its snapshot at the version it will be served under
// BEFORE any reader can see it; a version whose write then fails is simply
// never used.
func (r *registry) mint() uint64 { return r.nextVer.Add(1) }

// publish makes e the live entry of its name at e.version, which the
// caller settled beforehand: minted (client writes), shipped by the
// primary (replication) or read back from disk (recovery). With over
// non-nil it publishes only while over is still the live entry; false means
// the graph was deleted or replaced meanwhile, so the caller's edits were
// applied against a dead snapshot and must not be served. The version
// counter is raised to e.version, so versions minted after a recovery or a
// promotion stay above every installed one (CAS loop: replication and
// parallel recovery publish concurrently with each other and with mint).
func (r *registry) publish(e, over *graphEntry) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if over != nil && r.graphs[e.name] != over {
		return false
	}
	r.graphs[e.name] = e
	for {
		cur := r.nextVer.Load()
		if cur >= e.version || r.nextVer.CompareAndSwap(cur, e.version) {
			return true
		}
	}
}

// maxVersion returns the highest published version across all graphs
// (0 when empty): the node's replication fitness score — the router
// promotes the replica with the largest one.
func (r *registry) maxVersion() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var mv uint64
	for _, e := range r.graphs {
		if e.version > mv {
			mv = e.version
		}
	}
	return mv
}

func (r *registry) get(name string) (*graphEntry, bool) {
	r.mu.RLock()
	e, ok := r.graphs[name]
	r.mu.RUnlock()
	return e, ok
}

func (r *registry) delete(name string) (*graphEntry, bool) {
	r.mu.Lock()
	e, ok := r.graphs[name]
	delete(r.graphs, name)
	r.mu.Unlock()
	return e, ok
}

func (r *registry) list() []*graphEntry {
	r.mu.RLock()
	out := make([]*graphEntry, 0, len(r.graphs))
	for _, e := range r.graphs {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.graphs)
}

// readGraph parses an uploaded graph body in the given format:
// "edgelist" (default when empty), "mm" (MatrixMarket) or "metis".
func readGraph(format string, body io.Reader) (*graph.Graph, error) {
	switch format {
	case "", "edgelist":
		return graph.ReadEdgeList(body)
	case "mm", "matrixmarket":
		return graph.ReadMatrixMarket(body)
	case "metis":
		return graph.ReadMETIS(body)
	}
	return nil, fmt.Errorf("unknown format %q (want edgelist, mm or metis)", format)
}

// generateRequest is the JSON body of POST /graphs/{name}/generate. Only
// the fields used by the selected generator are read; zero values fall
// back to small defaults so a bare {"generator":"gnm"} works.
type generateRequest struct {
	Generator string `json:"generator"`
	// Shared size parameters.
	N    int   `json:"n"`
	M    int   `json:"m"`
	K    int   `json:"k"`
	Seed int64 `json:"seed"`
	// Rewiring / triad probability (wattsstrogatz, powerlawcluster) and
	// intra-community probability (planted). Pointers distinguish an
	// explicit 0 (a valid probability) from an absent field.
	P *float64 `json:"p"`
	// RMAT parameters.
	Scale      int      `json:"scale"`
	EdgeFactor int      `json:"edgeFactor"`
	A          *float64 `json:"a"`
	B          *float64 `json:"b"`
	C          *float64 `json:"c"`
	// Planted-communities parameters.
	Communities int `json:"communities"`
	Size        int `json:"size"`
	InterEdges  int `json:"interEdges"`
	// CliqueChain parameters.
	Count int `json:"count"`
}

func defInt(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func defFloat(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	return *v
}

// Generator size ceilings: a generate request is a few bytes of JSON, so
// without these a single call could allocate an arbitrarily large graph
// and OOM the server (the upload path is already bounded by
// MaxUploadBytes).
const (
	maxGenVertices = 1 << 25 // ~33M
	maxGenEdges    = 1 << 27 // ~134M (pre-dedup)
)

func checkGenSize(n, m int64) error {
	if n > maxGenVertices {
		return fmt.Errorf("generator size %d vertices exceeds the limit of %d", n, maxGenVertices)
	}
	if m > maxGenEdges {
		return fmt.Errorf("generator size %d edges exceeds the limit of %d", m, maxGenEdges)
	}
	return nil
}

// checkGenParams bounds every raw integer parameter before any products
// are formed, so the m computations in generate cannot overflow int64
// (each factor is at most 2^27, so any pairwise product fits).
func checkGenParams(params ...int) error {
	for _, p := range params {
		if int64(p) > maxGenEdges {
			return fmt.Errorf("generator parameter %d exceeds the limit of %d", p, maxGenEdges)
		}
	}
	return nil
}

// generate builds a graph from the request using the library generators.
func generate(req generateRequest) (*graph.Graph, error) {
	switch req.Generator {
	case "gnm":
		n := defInt(req.N, 1000)
		m := defInt(req.M, 4*n)
		if err := checkGenSize(int64(n), int64(m)); err != nil {
			return nil, err
		}
		// GnM rejection-samples distinct edges, so m beyond the simple
		// graph's capacity would spin forever.
		if maxM := int64(n) * int64(n-1) / 2; int64(m) > maxM {
			return nil, fmt.Errorf("gnm: %d edges exceed the %d possible on %d vertices", m, maxM, n)
		}
		return graph.GnM(n, m, req.Seed), nil
	case "ba", "barabasialbert":
		n, k := defInt(req.N, 1000), defInt(req.K, 4)
		if err := checkGenParams(n, k); err != nil {
			return nil, err
		}
		if err := checkGenSize(int64(n), int64(n)*int64(k)); err != nil {
			return nil, err
		}
		return graph.BarabasiAlbert(n, k, req.Seed), nil
	case "rmat":
		scale, ef := defInt(req.Scale, 10), defInt(req.EdgeFactor, 8)
		if scale > 25 {
			return nil, fmt.Errorf("rmat scale %d exceeds the limit of 25", scale)
		}
		if err := checkGenParams(ef); err != nil {
			return nil, err
		}
		if err := checkGenSize(int64(1)<<uint(scale), int64(ef)<<uint(scale)); err != nil {
			return nil, err
		}
		return graph.RMAT(scale, ef,
			defFloat(req.A, 0.45), defFloat(req.B, 0.22), defFloat(req.C, 0.22), req.Seed), nil
	case "ws", "wattsstrogatz":
		n, k := defInt(req.N, 1000), defInt(req.K, 6)
		if err := checkGenParams(n, k); err != nil {
			return nil, err
		}
		if err := checkGenSize(int64(n), int64(n)*int64(k)); err != nil {
			return nil, err
		}
		return graph.WattsStrogatz(n, k, defFloat(req.P, 0.1), req.Seed), nil
	case "plc", "powerlawcluster":
		n, k := defInt(req.N, 1000), defInt(req.K, 4)
		if err := checkGenParams(n, k); err != nil {
			return nil, err
		}
		if err := checkGenSize(int64(n), int64(n)*int64(k)); err != nil {
			return nil, err
		}
		return graph.PowerLawCluster(n, k, defFloat(req.P, 0.5), req.Seed), nil
	case "planted", "plantedcommunities":
		c, size := defInt(req.Communities, 8), defInt(req.Size, 32)
		inter := defInt(req.InterEdges, 64)
		if err := checkGenParams(c, size, inter); err != nil {
			return nil, err
		}
		nv := int64(c) * int64(size)
		// Vertex bound first: with nv <= 2^25 and size <= 2^27 the edge
		// product below cannot overflow.
		if err := checkGenSize(nv, 0); err != nil {
			return nil, err
		}
		if err := checkGenSize(nv, nv*int64(size-1)/2+int64(inter)); err != nil {
			return nil, err
		}
		return graph.PlantedCommunities(c, size, defFloat(req.P, 0.6), inter, req.Seed), nil
	case "complete":
		n := defInt(req.N, 16)
		if err := checkGenParams(n); err != nil {
			return nil, err
		}
		if err := checkGenSize(int64(n), int64(n)*int64(n-1)/2); err != nil {
			return nil, err
		}
		return graph.Complete(n), nil
	case "cliquechain":
		count, k := defInt(req.Count, 4), defInt(req.K, 8)
		if err := checkGenParams(count, k); err != nil {
			return nil, err
		}
		nv := int64(count) * int64(k)
		if err := checkGenSize(nv, 0); err != nil {
			return nil, err
		}
		if err := checkGenSize(nv, nv*int64(k-1)/2+int64(count)); err != nil {
			return nil, err
		}
		return graph.CliqueChain(count, k), nil
	}
	return nil, fmt.Errorf("unknown generator %q (want gnm, ba, rmat, ws, plc, planted, complete or cliquechain)", req.Generator)
}
