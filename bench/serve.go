package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"

	"nucleus"
	"nucleus/internal/graph"
	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	inucleus "nucleus/internal/nucleus"
)

// serve_query: one standalone nucleusd behind real loopback TCP, two
// closed-loop clients with one role each. The reader sends cache hits
// carrying the full τ array (main) and /core point lookups, back to back;
// the computer sends budgeted cache misses (alt) and the uncached
// graph-sized hierarchy read (aux). A round is the computer's three
// requests, and the reader keeps going until they are answered: every hit
// is served while the other core computes, and every computation while the
// other core serves hits.
//
// The roles replaced two clients that each did everything. Those met each
// other's requests by chance — a hit took 1.0 ms beside a hit and 1.6 ms
// beside a computation — and the share of each kind decided the median:
// ten runs of one build spread by 9–11 %, with the roles by 3–6 %
// (README.md, "Noise").

const (
	hitPath       = "/graphs/g/decompose?dec=truss&alg=and&tau=true"
	hierarchyPath = "/graphs/g/hierarchy?dec=truss"
	// serveCacheSize is the server's LRU capacity: two entries stay hot
	// (exact truss and exact core of g), which leaves two for the misses.
	serveCacheSize = 4
	// The same edge list is uploaded under missGraphs names, and the misses
	// walk them in a cycle at one sweep budget: a key comes back after
	// missGraphs-1 others went through the two free entries, so it is never
	// a hit, and every miss costs the same. (Cycling the budget on one graph
	// made the op's cost proportional to the budget, 7 to 73 ms over sixteen
	// keys; the median sat in the gap between the eighth and the ninth and
	// moved by 10 % from run to run.)
	missGraphs     = 3
	missBudget     = 8
	lookupVertices = 64

	computer = 1 // client 1 computes, client 0 reads
)

// request is one step of a client's script.
type request struct {
	slot  int
	name  string
	path  string
	graph string // alt only: the copy the miss goes to
}

// graphName is the name the i-th copy of the graph is registered under;
// the hits, the lookups and the hierarchy read all go to copy 0.
func graphName(i int) string {
	if i == 0 {
		return "g"
	}
	return "g" + strconv.Itoa(i)
}

func missPath(graph string) string {
	return "/graphs/" + graph + "/decompose?dec=truss&alg=snd&tau=true&maxSweeps=" + strconv.Itoa(missBudget)
}

// computeScript is round r of the computer: two misses and the hierarchy.
func computeScript(r int) []request {
	miss := func(i int) request {
		g := graphName(i % missGraphs)
		return request{slot: slotAlt, name: "serve_query/alt", path: missPath(g), graph: g}
	}
	return []request{miss(2 * r), miss(2*r + 1), {slot: slotAux, name: "serve_query/aux", path: hierarchyPath}}
}

// readScript is the reader's next two requests: a hit and a /core lookup
// of 64 seeded vertices.
func readScript(rng *rand.Rand, n int) []request {
	return []request{
		{slot: slotMain, name: "serve_query/main", path: hitPath},
		{slot: unslotted, name: "serve_query/core", path: coreLookupPath(rng, n, lookupVertices)},
	}
}

type serveQuery struct {
	cfg    config
	g      *graph.Graph
	srv    *nucleus.Server
	ts     *httptest.Server
	client *http.Client

	// Library answers the responses are checked against.
	trussHash uint64
	core      []int32
	missHash  uint64 // SND's τ after missBudget sweeps
	hierPrint [2]int

	lookups  atomic.Int64 // κ-consuming requests sent to srv, for /stats
	alts     atomic.Int64 // of those, the script's misses
	computed atomic.Int64 // rounds the computer has finished
	loaded   nodeStats    // /stats when the script's first round starts

	// Traced pass only: a second server that replays each request without
	// TCP, and the indexed instance the direct module calls run on.
	shadow *nucleus.Server
	inst   inucleus.Instance
	truss  []int32
	base   nodeStats
}

// Two clients whatever P is: the script is the two roles.
func (w *serveQuery) clients() int { return 2 }

func (w *serveQuery) tearDown() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.shadow != nil {
		w.shadow.Close()
	}
}

func (w *serveQuery) newServer() *nucleus.Server {
	return nucleus.NewServer(nucleus.ServerConfig{Workers: w.cfg.threads, JobThreads: 1, CacheSize: serveCacheSize})
}

// bodyPrint fingerprints a hierarchy response by what survives a reordering
// of siblings, which the server does not fix: its length and byte sum.
func bodyPrint(body []byte) [2]int {
	sum := 0
	for _, b := range body {
		sum += int(b)
	}
	return [2]int{len(body), sum}
}

// load registers the edge list under every graph name and asks for the
// answers that must be in place before the script starts: one miss per
// copy, which builds and memoises the copy's triangle index, and then the
// exact truss and core decompositions of g — last, so that they are the
// cache's most recent entries and the copy the script asks for first is the
// one already evicted. send is the real server over TCP or the shadow in
// process.
func (w *serveQuery) load(text []byte, send func(method, path string, body []byte, want int) ([]byte, error)) error {
	for i := 0; i < missGraphs; i++ {
		data, err := send("POST", "/graphs/"+graphName(i)+"?format=edgelist", text, http.StatusCreated)
		if err != nil {
			return err
		}
		var up struct{ N, M int64 }
		if err := json.Unmarshal(data, &up); err != nil {
			return err
		}
		if up.N != int64(w.g.N()) || up.M != w.g.M() {
			return fmt.Errorf("upload registered n=%d m=%d, generated n=%d m=%d", up.N, up.M, w.g.N(), w.g.M())
		}
	}
	for i := 0; i < missGraphs; i++ {
		body, err := send("GET", missPath(graphName(i)), nil, http.StatusOK)
		if err != nil {
			return err
		}
		if err := w.checkTau(body, w.missHash); err != nil {
			return fmt.Errorf("first miss on %s: %w", graphName(i), err)
		}
	}
	body, err := send("GET", hitPath, nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := w.checkTau(body, w.trussHash); err != nil {
		return fmt.Errorf("cold truss decomposition: %w", err)
	}
	_, err = send("GET", "/graphs/g/core?v=0", nil, http.StatusOK)
	return err
}

func (w *serveQuery) setUp(warm *recorder) error {
	p := w.cfg.threads
	c := w.cfg.size.serveComms
	w.g = graph.PlantedCommunities(c, 80, 0.3, 100*c, w.cfg.seed)
	text := edgeListText(edgeList(w.g, w.cfg.seed))

	// Library oracles: exact truss and core κ, and SND's τ at the budget.
	truss := nucleus.Decompose(w.g, nucleus.KTruss, nucleus.Options{Algorithm: nucleus.Peel, Threads: p}).Kappa
	w.trussHash = tauHash(truss)
	w.core = nucleus.Decompose(w.g, nucleus.KCore, nucleus.Options{Algorithm: nucleus.Peel, Threads: p}).Kappa
	inst, _ := inucleus.Build(w.g, inucleus.FamilyTruss, -1, p)
	w.missHash = tauHash(localhi.Snd(inst, localhi.Options{Threads: p, MaxSweeps: missBudget}).Tau)

	w.srv = w.newServer()
	w.ts = httptest.NewServer(w.srv)
	w.client = newHTTPClient(w.clients())
	err := w.load(text, func(method, path string, body []byte, want int) ([]byte, error) {
		if method == "GET" {
			w.lookups.Add(1)
		}
		return call(w.client, method, w.ts.URL+path, body, want)
	})
	if err != nil {
		return err
	}
	body, err := call(w.client, "GET", w.ts.URL+hierarchyPath, nil, http.StatusOK)
	if err != nil {
		return err
	}
	w.lookups.Add(1)
	w.hierPrint = bodyPrint(body)

	if w.cfg.trace {
		// The shadow holds the same graphs and the same cache entries.
		w.inst, w.truss = inst, truss
		w.shadow = w.newServer()
		err := w.load(text, func(method, path string, body []byte, want int) ([]byte, error) {
			return serveLocal(w.shadow, method, path, body, want)
		})
		if err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
	}

	if w.loaded, err = statsOf(w.srv); err != nil {
		return err
	}
	rounds := w.cfg.size.warmRounds("serve_query")
	rec := runRounds(w, 0, nil, func(done int) bool { return done >= rounds })
	warm.ops += rec.ops
	warm.failed += rec.failed
	if w.base, err = statsOf(w.srv); err != nil {
		return err
	}
	return nil
}

func (w *serveQuery) checkTau(body []byte, want uint64) error {
	got, err := responseTauHash(body)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("τ hashes to %x, the library's to %x", got, want)
	}
	return nil
}

// checkCore compares a /core answer with the library's κ, vertex by vertex.
func (w *serveQuery) checkCore(body []byte) error {
	var resp struct {
		Vertices    []uint32
		CoreNumbers []int32
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Vertices) != lookupVertices || len(resp.CoreNumbers) != lookupVertices {
		return fmt.Errorf("/core answered %d vertices, asked for %d", len(resp.CoreNumbers), lookupVertices)
	}
	for i, v := range resp.Vertices {
		if resp.CoreNumbers[i] != w.core[v] {
			return fmt.Errorf("/core says κ(%d)=%d, the library %d", v, resp.CoreNumbers[i], w.core[v])
		}
	}
	return nil
}

// round is the computer's three requests; the reader sends hits and
// lookups until the computer has finished the same round.
func (w *serveQuery) round(c, r int, rec *recorder) {
	if c == computer {
		w.send(computeScript(r), rec)
		w.computed.Store(int64(r) + 1)
		return
	}
	rng := rand.New(rand.NewSource(subSeed(w.cfg.seed, r)))
	for w.computed.Load() <= int64(r) {
		w.send(readScript(rng, w.g.N()), rec)
	}
}

func (w *serveQuery) send(script []request, rec *recorder) {
	for _, q := range script {
		var body []byte
		ok := rec.do(q.slot, q.name, func() (err error) {
			body, err = call(w.client, "GET", w.ts.URL+q.path, nil, http.StatusOK)
			return err
		})
		w.lookups.Add(1)
		if q.slot == slotAlt {
			w.alts.Add(1)
		}
		if !ok {
			continue
		}
		switch q.slot {
		case slotMain:
			want := w.trussHash
			if w.cfg.sabotage {
				want++
			}
			rec.verify(w.checkTau(body, want))
		case slotAlt:
			rec.verify(w.checkTau(body, w.missHash))
		case slotAux:
			if bodyPrint(body) != w.hierPrint {
				rec.verify(errors.New("hierarchy differs from the first answer at this version"))
			}
		default:
			rec.verify(w.checkCore(body))
		}
		if rec.tr != nil {
			w.replay(q, rec)
		}
	}
}

// replay repeats the request just answered on the shadow server, in
// process, and then the compute under it by calling the modules directly.
// What the op's root span keeps as self time is transport: loopback TCP,
// net/http on both ends, the client's read of the body.
func (w *serveQuery) replay(q request, rec *recorder) {
	local := func(path string) {
		if _, err := serveLocal(w.shadow, "GET", path, nil, http.StatusOK); err != nil {
			rec.verify(err)
		}
	}
	switch q.slot {
	case slotMain:
		rec.replay("server.hit_handler_ms", func() { local(q.path) })
	case slotAlt:
		// The shadow's LRU sees the same cycle of keys, so this is a miss
		// there too; JobThreads is 1, hence Threads: 1 below.
		id := rec.replay("server.miss_ms", func() { local(q.path) })
		rec.spanUnder(id, "localhi.snd_truss_budget_ms", true, func() {
			localhi.Snd(w.inst, localhi.Options{Threads: 1, MaxSweeps: missBudget})
		})
		rec.probe("server.job_submit_to_done_ms", func() { rec.verify(w.jobOnShadow(q.graph)) })
	case slotAux:
		id := rec.replay("server.hierarchy_ms", func() { local(q.path) })
		rec.spanUnder(id, "hierarchy.truss_serve_ms", true, func() { hierarchy.Build(w.inst, w.truss) })
	default:
		rec.replay("server.core_lookup_ms", func() { local(q.path) })
	}
}

// jobOnShadow is the asynchronous route to the same kind of answer: submit
// a budgeted job, follow its event stream until it closes, fetch the result.
func (w *serveQuery) jobOnShadow(graph string) error {
	// AND under the sweep budget, on the copy the miss went to: a key of its
	// own that walks the same cycle, so the job computes.
	req := fmt.Sprintf(`{"graph":%q,"decomposition":"truss","algorithm":"and","maxSweeps":%d}`, graph, missBudget)
	data, err := serveLocal(w.shadow, "POST", "/jobs", []byte(req), http.StatusAccepted)
	if err != nil {
		return err
	}
	var job struct{ ID string }
	if err := json.Unmarshal(data, &job); err != nil {
		return err
	}
	stream, err := serveLocal(w.shadow, "GET", "/jobs/"+job.ID+"/stream", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if !bytes.Contains(stream, []byte("event: done")) {
		return fmt.Errorf("job stream of %s closed without a done event", job.ID)
	}
	_, err = serveLocal(w.shadow, "GET", "/jobs/"+job.ID+"/result", nil, http.StatusOK)
	return err
}

// check is the exactly-once cache accounting: every κ-consuming request
// the benchmark sent resolved as one hit or one miss, and nothing else did;
// and the script is what it says: every alt missed, everything else hit.
func (w *serveQuery) check(rec *recorder) error {
	st, err := statsOf(w.srv)
	if err != nil {
		return err
	}
	sent := w.lookups.Load()
	if st.Cache.Hits+st.Cache.Misses != st.Cache.Lookups || st.Cache.Lookups != sent {
		rec.failCheck(fmt.Errorf("/stats cache accounting: hits %d + misses %d, lookups %d, requests sent %d",
			st.Cache.Hits, st.Cache.Misses, st.Cache.Lookups, sent))
	}
	if missed, alts := st.Cache.Misses-w.loaded.Cache.Misses, w.alts.Load(); missed != alts {
		rec.failCheck(fmt.Errorf("the script sent %d misses, the cache counted %d", alts, missed))
	}
	return nil
}

func (w *serveQuery) finishTrace(rec *recorder, layers map[string]float64) error {
	var transport []float64
	for _, b := range opBreakdowns(rec.tr.spans) {
		if b.Name == "serve_query/main" {
			transport = append(transport, b.Residual)
		}
	}
	layers["server.hit_transport_ms"] = median(transport)

	st, err := statsOf(w.srv)
	if err != nil {
		return err
	}
	layers["server.cache_hit_ratio"] = float64(st.Cache.Hits-w.base.Cache.Hits) / float64(st.Cache.Lookups-w.base.Cache.Lookups)
	shadow, err := statsOf(w.shadow)
	if err != nil {
		return err
	}
	if shadow.Jobs.Submitted == 0 {
		return errors.New("traced pass submitted no job")
	}
	layers["sched.shed_ratio"] = float64(shadow.Jobs.Shed) / float64(shadow.Jobs.Submitted)
	return nil
}
