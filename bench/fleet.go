package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"nucleus/internal/dynamic"
	"nucleus/internal/graph"
	inucleus "nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/replica"
	"nucleus/internal/router"
	"nucleus/internal/server"
	"nucleus/internal/store"
)

// fleet_mutate: router → durable primary + one replica, all in process on
// loopback, one closed-loop client. main is a 16-edit batch through the
// router until its ack, aux the replica catching up, alt the first full-κ
// read at the new version (routed, so the replica serves it).

const (
	batchAdds = 8
	// removeLag is how many rounds an added edge lives before the script
	// removes it again: after that many rounds every batch is 8 adds and 8
	// removes and the graph's size is stationary.
	removeLag      = 4
	fleetLookups   = 8
	fleetLookupVs  = 16
	fleetReadPath  = "/graphs/g/decompose?dec=core&alg=and&tau=true"
	fleetGraphPath = "/graphs/g"
)

// ledger is the benchmark's own record of the graph: every edge it
// uploaded or added and has not removed. The final oracle peels it.
type ledger struct {
	edges [][2]uint32
	index map[[2]uint32]int
	added [][2]uint32 // FIFO of the script's own adds, oldest first
}

func newLedger(edges [][2]uint32) *ledger {
	l := &ledger{index: make(map[[2]uint32]int, len(edges))}
	for _, e := range edges {
		l.add(e[0], e[1])
	}
	return l
}

func edgeKey(u, v uint32) [2]uint32 {
	if u > v {
		u, v = v, u
	}
	return [2]uint32{u, v}
}

func (l *ledger) has(u, v uint32) bool { _, ok := l.index[edgeKey(u, v)]; return ok }

func (l *ledger) add(u, v uint32) {
	k := edgeKey(u, v)
	l.index[k] = len(l.edges)
	l.edges = append(l.edges, k)
}

func (l *ledger) remove(u, v uint32) {
	k := edgeKey(u, v)
	i := l.index[k]
	last := l.edges[len(l.edges)-1]
	l.edges[i] = last
	l.index[last] = i
	l.edges = l.edges[:len(l.edges)-1]
	delete(l.index, k)
}

// nextBatch draws the next batch of the seeded edit script and applies it
// to the ledger. Both endpoints of an add are endpoints of random existing
// edges, so edits land where the graph has structure, degree-proportionally,
// instead of among RMAT's many isolated vertices.
func (l *ledger) nextBatch(rng *rand.Rand) *store.Batch {
	b := &store.Batch{}
	endpoint := func() uint32 { return l.edges[rng.Intn(len(l.edges))][rng.Intn(2)] }
	for len(b.Edits) < batchAdds {
		u, v := endpoint(), endpoint()
		if u == v || l.has(u, v) {
			continue
		}
		l.add(u, v)
		l.added = append(l.added, [2]uint32{u, v})
		b.Edits = append(b.Edits, store.BatchOp{Op: store.OpAdd, U: u, V: v})
	}
	if len(l.added) > batchAdds*removeLag {
		for _, e := range l.added[:batchAdds] {
			l.remove(e[0], e[1])
			b.Edits = append(b.Edits, store.BatchOp{Op: store.OpRemove, U: e[0], V: e[1]})
		}
		l.added = l.added[batchAdds:]
	}
	return b
}

// batchJSON is the body of POST /graphs/{name}/edges for a batch.
func batchJSON(b *store.Batch) []byte {
	buf := []byte(`{"edits":[`)
	for i, e := range b.Edits {
		if i > 0 {
			buf = append(buf, ',')
		}
		op := "add"
		if e.Op == store.OpRemove {
			op = "remove"
		}
		buf = append(buf, `{"op":"`+op+`","u":`...)
		buf = strconv.AppendUint(buf, uint64(e.U), 10)
		buf = append(buf, `,"v":`...)
		buf = strconv.AppendUint(buf, uint64(e.V), 10)
		buf = append(buf, '}')
	}
	return append(buf, `]}`...)
}

// fleetGraph is the fleet's graph: fleetBlocks disjoint RMAT graphs, each
// from a seed of its own. One RMAT graph will not do: what a batch costs
// to repair is the size of the subcores its edits land in, and that moved
// 3× between seeds of a single 16 k-vertex RMAT (10 to 32 ms per batch).
// Over eight blocks the subcore sizes average out, and repair stays one
// part of the op beside logging, republishing and warm-seeding.
func fleetGraph(sz sizes, seed int64) *graph.Graph {
	var edges [][2]uint32
	n := 0
	for b := 0; b < sz.fleetBlocks; b++ {
		g := graph.RMAT(sz.fleetScale, sz.fleetDegree, 0.57, 0.19, 0.19, subSeed(seed, b))
		for _, e := range g.Edges() {
			edges = append(edges, [2]uint32{e[0] + uint32(n), e[1] + uint32(n)})
		}
		n += g.N()
	}
	return graph.Build(n, edges)
}

// node is one in-process nucleusd with its own data directory.
type node struct {
	srv *server.Server
	ts  *httptest.Server
}

func startNode(dir, role, primaryURL string, threads int) (*node, error) {
	fs, err := store.OpenFS(dir)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Workers:    threads,
		JobThreads: 1,
		Store:      fs,
		Replication: server.ReplicationConfig{
			Role:       role,
			Primary:    primaryURL,
			Generation: 1,
			// No timers in the measured path: the script drives every pull.
			PullInterval: -1,
		},
	})
	return &node{srv: srv, ts: httptest.NewServer(srv)}, nil
}

// abandon is a kill: the listener goes away and the server is never
// closed, so whatever reached the directory is what a restart recovers.
func (n *node) abandon() {
	n.ts.CloseClientConnections()
	n.ts.Close()
}

type fleetMutate struct {
	cfg    config
	dir    string
	client *http.Client // the benchmark's own connections
	proxy  *http.Client // the router's connections to the nodes
	rng    *rand.Rand
	led    *ledger

	primary, replica *node
	routerTS         *httptest.Server
	dead             []*node // abandoned servers, closed at tear-down

	version     uint64 // last acknowledged version
	n           int    // vertex count the upload registered
	replicaBase nodeStats

	// Traced pass only: shadow state the batches are replayed on.
	scratch                    *store.FS
	shadowPrimary, shadowRepl  *dynamic.Graph
	primaryBase, replStartBase nodeStats
}

func (w *fleetMutate) clients() int { return 1 }

func (w *fleetMutate) tearDown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.proxy.CloseIdleConnections()
	}
	if w.routerTS != nil {
		w.routerTS.Close()
	}
	for _, n := range []*node{w.replica, w.primary} {
		if n != nil {
			n.ts.Close()
			n.srv.Close()
		}
	}
	for _, n := range w.dead {
		n.srv.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

type mutateAck struct {
	Version        uint64
	Added, Removed int
	Ignored        int
}

// mutate sends one batch to base (the router or the primary) and checks
// the ack: the version rose by exactly one and every edit took effect.
func (w *fleetMutate) mutate(base string, b *store.Batch) error {
	var ack mutateAck
	if err := callJSON(w.client, "POST", base+"/graphs/g/edges", batchJSON(b), http.StatusOK, &ack); err != nil {
		return err
	}
	want := w.version + 1
	w.version = ack.Version
	if ack.Version != want {
		return fmt.Errorf("acked version %d, want %d", ack.Version, want)
	}
	if ack.Added+ack.Removed != len(b.Edits) || ack.Ignored != 0 {
		return fmt.Errorf("batch of %d edits acked as %d added, %d removed, %d ignored", len(b.Edits), ack.Added, ack.Removed, ack.Ignored)
	}
	return nil
}

// catchUp pulls on the replica until its graph is at the acked version.
func (w *fleetMutate) catchUp(n *node) error {
	for try := 0; try < 3; try++ {
		if _, err := call(w.client, "POST", n.ts.URL+"/replication/pull", nil, http.StatusOK); err != nil {
			return err
		}
		var g struct{ Version uint64 }
		if err := callJSON(w.client, "GET", n.ts.URL+fleetGraphPath, nil, http.StatusOK, &g); err != nil {
			return err
		}
		if g.Version == w.version {
			return nil
		}
	}
	return fmt.Errorf("replica did not reach version %d in three pulls", w.version)
}

func (w *fleetMutate) setUp(warm *recorder) error {
	p := w.cfg.threads
	if err := os.MkdirAll(w.cfg.dataDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.cfg.dataDir, "fleet-*")
	if err != nil {
		return err
	}
	w.dir = dir
	w.client, w.proxy = newHTTPClient(p), newHTTPClient(p)
	w.rng = rand.New(rand.NewSource(w.cfg.seed))

	edges := edgeList(fleetGraph(w.cfg.size, w.cfg.seed), w.cfg.seed)
	w.led = newLedger(edges)

	// Primary: upload, cold core decomposition (so every batch warm-seeds
	// core κ), then the warm-up batches straight to it.
	first, err := startNode(filepath.Join(dir, "p0"), replica.RolePrimary, "", p)
	if err != nil {
		return err
	}
	w.primary = first
	var up struct {
		Version uint64
		N       int
	}
	if err := callJSON(w.client, "POST", first.ts.URL+"/graphs/g?format=edgelist", edgeListText(edges), http.StatusCreated, &up); err != nil {
		return err
	}
	w.version, w.n = up.Version, up.N
	if _, err := call(w.client, "GET", first.ts.URL+fleetReadPath, nil, http.StatusOK); err != nil {
		return err
	}
	for r := 0; r < w.cfg.size.fleetWarmBatches; r++ {
		b := w.led.nextBatch(w.rng)
		if err := w.mutate(first.ts.URL, b); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", r, err)
		}
	}

	// Kill the primary and recover it from its directory: snapshot plus
	// WAL replay of every warm-up batch.
	first.abandon()
	w.dead = append(w.dead, first)
	w.primary = nil
	if w.primary, err = startNode(filepath.Join(dir, "p0"), replica.RolePrimary, "", p); err != nil {
		return err
	}
	var rec struct{ Version uint64 }
	if err := callJSON(w.client, "GET", w.primary.ts.URL+fleetGraphPath, nil, http.StatusOK, &rec); err != nil {
		return fmt.Errorf("recovered primary: %w", err)
	}
	if rec.Version != w.version {
		return fmt.Errorf("primary recovered at version %d, last ack was %d", rec.Version, w.version)
	}

	// Replica, router, first snapshot sync.
	if w.replica, err = startNode(filepath.Join(dir, "r0"), replica.RoleReplica, w.primary.ts.URL, p); err != nil {
		return err
	}
	rt, err := router.New(router.Config{
		Groups: []router.GroupConfig{{Name: "g0", Primary: w.primary.ts.URL, Replicas: []string{w.replica.ts.URL}}},
		Client: w.proxy,
	})
	if err != nil {
		return err
	}
	w.routerTS = httptest.NewServer(rt)
	if err := w.catchUp(w.replica); err != nil {
		return fmt.Errorf("first sync: %w", err)
	}
	if w.replicaBase, err = statsOf(w.replica.srv); err != nil {
		return err
	}
	// Whole rounds through the finished topology: connections open, the
	// replica has applied batches, the router has proxied both ways.
	for r := 0; r < w.cfg.size.warmRounds("fleet_mutate"); r++ {
		w.round(0, r, warm)
	}
	if w.cfg.trace {
		return w.setUpShadow()
	}
	return nil
}

// coreRead is the alt op's answer.
type coreRead struct {
	Version   uint64
	Converged bool
	Tau       []int32
}

func (w *fleetMutate) round(_, r int, rec *recorder) {
	b := w.led.nextBatch(w.rng)
	// A traced pass sends every other batch straight to the primary: the
	// difference between the two medians is the router's write hop.
	target, route := w.routerTS.URL, "fleet.routed_mutate_ms"
	if rec.tr != nil && r%2 == 1 {
		target, route = w.primary.ts.URL, "server.mutate_direct_ms"
	}
	rec.do(slotMain, "fleet_mutate/main", func() error { return w.mutate(target, b) })
	rec.count(route, rec.last(slotMain))
	if rec.tr != nil {
		w.replayBatch(rec, w.shadowPrimary, b, true)
	}

	rec.do(slotAux, "fleet_mutate/aux", func() error { return w.catchUp(w.replica) })
	if rec.tr != nil {
		w.replayBatch(rec, w.shadowRepl, b, false)
	}

	// Only the request is timed; decoding 16 k core numbers is the
	// oracle's work, not the fleet's.
	var body []byte
	var read coreRead
	ok := rec.do(slotAlt, "fleet_mutate/alt", func() (err error) {
		body, err = call(w.client, "GET", w.routerTS.URL+fleetReadPath, nil, http.StatusOK)
		return err
	})
	if ok {
		if err := json.Unmarshal(body, &read); err != nil {
			ok = false
			rec.verify(fmt.Errorf("routed read: %w", err))
		}
	}
	if ok {
		if w.cfg.sabotage {
			read.Version++
		}
		if read.Version != w.version || !read.Converged {
			rec.verify(fmt.Errorf("routed read answered version %d converged=%v, want version %d exact", read.Version, read.Converged, w.version))
		}
	}
	if rec.tr != nil {
		rec.replay("server.read_direct_ms", func() {
			if _, err := call(w.client, "GET", w.replica.ts.URL+fleetReadPath, nil, http.StatusOK); err != nil {
				rec.verify(err)
			}
		})
	}

	for i := 0; i < fleetLookups; i++ {
		path := coreLookupPath(w.rng, w.n, fleetLookupVs)
		var look struct {
			Version     uint64
			Vertices    []uint32
			CoreNumbers []int32
		}
		if !rec.do(unslotted, "fleet_mutate/core", func() error {
			return callJSON(w.client, "GET", w.routerTS.URL+path, nil, http.StatusOK, &look)
		}) || !ok {
			continue
		}
		// The point lookups must agree with the full read of this version.
		for j, v := range look.Vertices {
			if look.Version != read.Version || look.CoreNumbers[j] != read.Tau[v] {
				rec.verify(fmt.Errorf("/core says κ(%d)=%d at version %d, the full read %d at version %d", v, look.CoreNumbers[j], look.Version, read.Tau[v], read.Version))
				break
			}
		}
	}
}

// check holds both nodes' full κ against a peel of the ledger, and the
// replica to zero cold decompositions since set-up.
func (w *fleetMutate) check(rec *recorder) error {
	var want []int32
	for _, n := range []*node{w.primary, w.replica} {
		var read coreRead
		if err := callJSON(w.client, "GET", n.ts.URL+fleetReadPath, nil, http.StatusOK, &read); err != nil {
			return err
		}
		if want == nil {
			// The server's vertex count only grows; the oracle adopts it.
			want = peel.RunThreads(inucleus.NewCore(graph.BuildThreads(len(read.Tau), w.led.edges, w.cfg.threads)), w.cfg.threads).Kappa
		}
		if read.Version != w.version {
			rec.failCheck(fmt.Errorf("final read at version %d, last ack %d", read.Version, w.version))
		}
		if err := sameKappa(read.Tau, want); err != nil {
			rec.failCheck(fmt.Errorf("final κ against the ledger: %w", err))
		}
	}
	st, err := statsOf(w.replica.srv)
	if err != nil {
		return err
	}
	if cold := st.Mutations.ColdRuns - w.replicaBase.Mutations.ColdRuns; cold != 0 {
		rec.failCheck(fmt.Errorf("replica ran %d cold decompositions after set-up", cold))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Traced pass: shadow state and once-per-pass layer measurements.

func (w *fleetMutate) setUpShadow() error {
	var err error
	if w.scratch, err = store.OpenFS(filepath.Join(w.dir, "scratch")); err != nil {
		return err
	}
	g := graph.BuildThreads(-1, w.led.edges, w.cfg.threads)
	if err := w.scratch.SaveSnapshot("g", &store.Snapshot{Meta: store.Meta{Version: w.version}, Graph: g}); err != nil {
		return err
	}
	w.shadowPrimary = dynamic.FromStatic(g)
	w.shadowRepl = dynamic.FromStatic(g)
	if w.primaryBase, err = statsOf(w.primary.srv); err != nil {
		return err
	}
	w.replStartBase, err = statsOf(w.replica.srv)
	return err
}

// replayBatch repeats on shadow state what a node does with a batch: log
// it (primary side only: the replica's log write is inside its pull),
// repair the overlay edit by edit, republish the CSR, warm-seed core κ.
func (w *fleetMutate) replayBatch(rec *recorder, shadow *dynamic.Graph, b *store.Batch, logged bool) {
	if logged {
		rec.replay("store.wal_append_ms", func() {
			n1, err1 := w.scratch.BeginBatch("g", b)
			n2, err2 := w.scratch.CommitBatch("g", w.version)
			if err := errors.Join(err1, err2); err != nil {
				rec.verify(err)
			}
			rec.count("store.wal_bytes_per_batch", float64(n1+n2))
		})
	}
	rec.replay("dynamic.apply_batch_ms", func() {
		for _, e := range b.Edits {
			if e.Op == store.OpAdd {
				shadow.InsertEdge(e.U, e.V)
			} else {
				shadow.RemoveEdge(e.U, e.V)
			}
		}
	})
	var g *graph.Graph
	rec.replay("dynamic.static_ms", func() { g = shadow.Static() })
	rec.replay("dynamic.warm_core_ms", func() {
		dynamic.WarmCoreNumbersOn(inucleus.NewCore(g), g, shadow.CoreNumbers(), 0, 1)
	})
}

// thrice runs fn three times and returns the median time in ms.
func thrice(fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	return median(ms), nil
}

func (w *fleetMutate) finishTrace(rec *recorder, layers map[string]float64) error {
	p := w.cfg.threads
	// Routed − direct, for the same request.
	layers["router.write_hop_ms"] = median(rec.tr.counts["fleet.routed_mutate_ms"]) - median(rec.tr.counts["server.mutate_direct_ms"])
	var hop, pull []float64
	for _, b := range opBreakdowns(rec.tr.spans) {
		switch b.Name {
		case "fleet_mutate/alt":
			hop = append(hop, b.Residual)
		case "fleet_mutate/aux":
			pull = append(pull, b.Wall)
		}
	}
	layers["router.read_hop_ms"] = median(hop)
	layers["replica.pull_ms"] = median(pull)

	pst, err := statsOf(w.primary.srv)
	if err != nil {
		return err
	}
	rst, err := statsOf(w.replica.srv)
	if err != nil {
		return err
	}
	batches := rst.Replication.BatchesApplied - w.replStartBase.Replication.BatchesApplied
	if batches == 0 {
		return errors.New("replica applied no batch during the traced pass")
	}
	layers["replica.bytes_per_batch"] = float64(rst.Replication.BytesPulled-w.replStartBase.Replication.BytesPulled) / float64(batches)
	layers["server.warm_runs"] = float64(pst.Mutations.WarmRuns - w.primaryBase.Mutations.WarmRuns + rst.Mutations.WarmRuns - w.replStartBase.Mutations.WarmRuns)
	layers["server.cold_runs"] = float64(rst.Mutations.ColdRuns - w.replStartBase.Mutations.ColdRuns)

	// Persistence of the graph as it stands: snapshot write, then a load of
	// the scratch store's snapshot plus the WAL this pass appended.
	g := w.shadowPrimary.Static()
	snap := &store.Snapshot{Meta: store.Meta{Version: w.version}, Graph: g, Kappa: w.shadowPrimary.CoreNumbers()}
	if layers["store.snapshot_save_ms"], err = thrice(func() error { return w.scratch.SaveSnapshot("snap", snap) }); err != nil {
		return err
	}
	img, err := w.scratch.SnapshotImage("snap")
	if err != nil {
		return err
	}
	layers["store.snapshot_bytes"] = float64(len(img))
	if layers["store.load_ms"], err = thrice(func() error {
		_, _, err := w.scratch.LoadThreads("g", p)
		return err
	}); err != nil {
		return err
	}

	// A fresh replica's first contact: manifest, snapshot, WAL tail. Once:
	// it applies every batch of the run, which is seconds, not noise.
	fresh, err := startNode(filepath.Join(w.dir, "resync"), replica.RoleReplica, w.primary.ts.URL, p)
	if err != nil {
		return err
	}
	w.dead = append(w.dead, fresh)
	start := time.Now()
	if err := w.catchUp(fresh); err != nil {
		return err
	}
	layers["replica.resync_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	fresh.ts.Close()

	// Kill the primary once more and time what a restart pays.
	w.primary.abandon()
	w.dead = append(w.dead, w.primary)
	w.primary = nil
	fs, err := store.OpenFS(filepath.Join(w.dir, "p0"))
	if err != nil {
		return err
	}
	start = time.Now()
	srv := server.New(server.Config{Workers: p, JobThreads: 1, Store: fs})
	layers["server.recover_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	defer srv.Close()
	st, err := statsOf(srv)
	layers["server.replayed_batches"] = float64(st.Persistence.ReplayedBatches)
	return err
}
