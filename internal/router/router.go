// Package router implements nucleus-router: a stateless front door for
// a fleet of replicated nucleusd shard groups (docs/REPLICATION.md).
// Graph names are consistent-hashed across groups; within a group,
// mutations are proxied to the primary stamped with the group's cluster
// generation (so a deposed primary fences them), reads fan out
// round-robin across the replicas, and async job traffic sticks to the
// node that owns the job via a node suffix the router folds into the
// job id. A health loop probes each group's primary and, on failure,
// promotes the most caught-up replica under a freshly incremented
// generation and repoints the survivors.
package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nucleus/internal/promtext"
	"nucleus/internal/replica"
)

// maxPeekBytes bounds the request bodies the router buffers to discover
// the target graph (POST /jobs, POST /estimate/*). Mutation and upload
// bodies are streamed, never buffered.
const maxPeekBytes = 8 << 20

// GroupConfig declares one shard group: a primary and its read
// replicas, all base URLs.
type GroupConfig struct {
	Name     string   `json:"name"`
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas"`
}

// Config configures a Router.
type Config struct {
	Groups []GroupConfig
	// VNodes is the virtual-node count per group on the hash ring
	// (default 64).
	VNodes int
	// Client performs all proxied requests (default: http.Client with a
	// 30s timeout). Health probes use ProbeClient.
	Client *http.Client
	// ProbeClient performs health/status probes (default: 2s timeout) —
	// kept separate so a hung primary fails probes fast while long
	// decompose reads keep streaming.
	ProbeClient *http.Client
	// Generation is the starting cluster generation for every group
	// (default 1). Health checks adopt higher generations observed on
	// the nodes themselves.
	Generation uint64
}

// node is one nucleusd backend.
type node struct {
	name    string // "<group>/p0", "<group>/r1" — the job-id suffix
	url     *url.URL
	healthy atomic.Bool

	mu         sync.Mutex
	maxVersion uint64 // from the last status probe
}

// group is one shard: an ordered node list with a current primary.
type group struct {
	name  string
	nodes []*node

	mu         sync.Mutex
	primary    int // index into nodes
	generation uint64

	rr atomic.Uint64 // round-robin cursor over replicas
}

func (g *group) primaryNode() (*node, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes[g.primary], g.generation
}

// readNode picks a healthy replica round-robin, falling back to the
// primary when no replica is available — a one-node group serves its
// own reads.
func (g *group) readNode() *node {
	g.mu.Lock()
	primary := g.primary
	nodes := g.nodes
	g.mu.Unlock()
	nrep := len(nodes) - 1
	if nrep > 0 {
		start := g.rr.Add(1)
		for i := 0; i < nrep; i++ {
			// Walk indices skipping the primary slot.
			idx := int((start + uint64(i)) % uint64(nrep))
			ri := 0
			for j := range nodes {
				if j == primary {
					continue
				}
				if ri == idx {
					if nodes[j].healthy.Load() {
						return nodes[j]
					}
					break
				}
				ri++
			}
		}
	}
	return nodes[primary]
}

// Router is the http.Handler. Zero value is not usable; construct with
// New.
type Router struct {
	client *http.Client
	probe  *http.Client
	groups []*group
	ring   *ring
	byName map[string]*node
	mux    *http.ServeMux
	start  time.Time

	// stats is the /stats document and the storage of its counters:
	// owners increment the fields in place.
	stats routerStats

	running  atomic.Bool
	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// New builds a Router over the configured groups. Every group needs a
// distinct name free of '@' and '/' (they delimit job-id suffixes) and
// at least a primary URL.
func New(cfg Config) (*Router, error) {
	if len(cfg.Groups) == 0 {
		return nil, errors.New("router: no shard groups configured")
	}
	rt := &Router{
		client: cfg.Client,
		probe:  cfg.ProbeClient,
		byName: map[string]*node{},
		start:  time.Now(),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{Timeout: 30 * time.Second}
	}
	if rt.probe == nil {
		rt.probe = &http.Client{Timeout: 2 * time.Second}
	}
	gen := cfg.Generation
	if gen == 0 {
		gen = 1
	}
	var names []string
	seen := map[string]bool{}
	for _, gc := range cfg.Groups {
		if gc.Name == "" || strings.ContainsAny(gc.Name, "@/") {
			return nil, fmt.Errorf("router: group name %q must be non-empty and free of '@' and '/'", gc.Name)
		}
		if seen[gc.Name] {
			return nil, fmt.Errorf("router: duplicate group %q", gc.Name)
		}
		seen[gc.Name] = true
		if gc.Primary == "" {
			return nil, fmt.Errorf("router: group %q has no primary", gc.Name)
		}
		g := &group{name: gc.Name, generation: gen}
		add := func(raw, nodeName string) error {
			u, err := url.Parse(raw)
			if err != nil || u.Scheme == "" || u.Host == "" {
				return fmt.Errorf("router: group %q: bad node URL %q", gc.Name, raw)
			}
			n := &node{name: nodeName, url: u}
			n.healthy.Store(true)
			g.nodes = append(g.nodes, n)
			rt.byName[nodeName] = n
			return nil
		}
		if err := add(gc.Primary, gc.Name+"-p0"); err != nil {
			return nil, err
		}
		for i, r := range gc.Replicas {
			if err := add(r, fmt.Sprintf("%s-r%d", gc.Name, i)); err != nil {
				return nil, err
			}
		}
		rt.groups = append(rt.groups, g)
		names = append(names, gc.Name)
	}
	rt.ring = buildRing(names, cfg.VNodes)
	rt.mux = rt.routes()
	return rt, nil
}

func (rt *Router) routes() *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /stats", rt.handleStats)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /router/groups", rt.handleGroups)
	mux.HandleFunc("POST /router/check", rt.handleCheck)

	mux.HandleFunc("GET /graphs", rt.handleListGraphs)
	mux.HandleFunc("POST /graphs/{name}", rt.handleWrite)
	mux.HandleFunc("POST /graphs/{name}/generate", rt.handleWrite)
	mux.HandleFunc("POST /graphs/{name}/edges", rt.handleWrite)
	mux.HandleFunc("DELETE /graphs/{name}", rt.handleWrite)
	mux.HandleFunc("GET /graphs/{name}", rt.handleRead)
	mux.HandleFunc("GET /graphs/{name}/core", rt.handleRead)
	mux.HandleFunc("GET /graphs/{name}/decompose", rt.handleRead)
	mux.HandleFunc("GET /graphs/{name}/hierarchy", rt.handleRead)
	mux.HandleFunc("GET /graphs/{name}/nuclei", rt.handleRead)
	mux.HandleFunc("GET /graphs/{name}/densest", rt.handleRead)

	mux.HandleFunc("POST /estimate/core", rt.handleEstimate)
	mux.HandleFunc("POST /estimate/truss", rt.handleEstimate)

	mux.HandleFunc("POST /jobs", rt.handleSubmitJob)
	mux.HandleFunc("GET /jobs", rt.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /jobs/{id}/result", rt.handleJob)
	mux.HandleFunc("GET /jobs/{id}/progress", rt.handleJob)
	mux.HandleFunc("GET /jobs/{id}/stream", rt.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", rt.handleJob)

	return mux
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.stats.Requests.Add(1)
	rt.mux.ServeHTTP(w, r)
}

// Run probes the fleet every interval until Stop. The binary calls
// this; tests drive CheckOnce (or POST /router/check) directly.
func (rt *Router) Run(interval time.Duration) {
	rt.running.Store(true)
	defer close(rt.doneCh)
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopCh:
			return
		case <-t.C:
			rt.CheckOnce()
		}
	}
}

// Stop ends Run and waits for it to exit (no-op when Run never ran).
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stopCh) })
	if rt.running.Load() {
		<-rt.doneCh
	}
}

func (rt *Router) groupFor(name string) *group {
	return rt.groups[rt.ring.groupFor(name)]
}

// ---------------------------------------------------------------------------
// Proxying.

// forward proxies r to n at the same path and query. gen > 0 stamps the
// cluster generation header (mutations). rewrite, when non-nil, buffers
// a 2xx JSON response and transforms it (job-id suffixing); otherwise
// the body streams through with per-chunk flushes so SSE and long
// result payloads flow immediately.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, n *node, gen uint64, body io.Reader, rewrite func([]byte) []byte) {
	target := *n.url
	target.Path = strings.TrimSuffix(n.url.Path, "/") + r.URL.Path
	target.RawQuery = r.URL.RawQuery
	if body == nil {
		body = r.Body
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target.String(), body)
	if err != nil {
		rt.stats.ProxyErrors.Add(1)
		writeError(w, http.StatusBadGateway, "router: building upstream request: %v", err)
		return
	}
	copyHeader(req.Header, r.Header)
	req.Header.Del("Connection")
	if gen > 0 {
		req.Header.Set(replica.GenerationHeader, fmt.Sprint(gen))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if !requesterGone(r) {
			rt.stats.ProxyErrors.Add(1)
			n.healthy.Store(false)
		}
		writeError(w, http.StatusBadGateway, "router: upstream %s: %v", n.name, err)
		return
	}
	defer resp.Body.Close()
	n.healthy.Store(true)
	if gen > 0 && resp.StatusCode == http.StatusConflict {
		rt.stats.FencedWrites.Add(1)
	}

	if rewrite != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			if !requesterGone(r) {
				rt.stats.ProxyErrors.Add(1)
			}
			writeError(w, http.StatusBadGateway, "router: reading upstream response: %v", err)
			return
		}
		data = rewrite(data)
		copyHeader(w.Header(), resp.Header)
		w.Header().Del("Content-Length")
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(data)
		return
	}

	copyHeader(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	flushCopy(w, resp.Body)
}

// requesterGone reports that r's own context is done — the client hung
// up or its deadline passed. An upstream exchange that fails then says
// nothing about the node: neither its health flag nor proxyErrors may
// move (with the health loop off, nothing would put the node back).
func requesterGone(r *http.Request) bool { return r.Context().Err() != nil }

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// flushCopy streams src to w, flushing after every chunk so SSE events
// and incremental payloads reach the client as they arrive.
func flushCopy(w http.ResponseWriter, src io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		nr, err := src.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Graph traffic.

func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	g := rt.groupFor(r.PathValue("name"))
	n, gen := g.primaryNode()
	rt.stats.ProxiedWrites.Add(1)
	rt.forward(w, r, n, gen, nil, nil)
}

func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	g := rt.groupFor(r.PathValue("name"))
	rt.stats.ProxiedReads.Add(1)
	rt.forward(w, r, g.readNode(), 0, nil, nil)
}

// handleListGraphs fans GET /graphs across every group's read node and
// merges the arrays, sorted by graph name for a stable composite view.
func (rt *Router) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	rt.stats.ProxiedReads.Add(1)
	type item struct {
		name string
		raw  json.RawMessage
	}
	var items []item
	for _, g := range rt.groups {
		n := g.readNode()
		list, err := rt.fetchJSONList(r, n)
		if err != nil {
			if !requesterGone(r) {
				rt.stats.ProxyErrors.Add(1)
			}
			writeError(w, http.StatusBadGateway, "router: listing graphs on %s: %v", n.name, err)
			return
		}
		for _, raw := range list {
			var v struct {
				Name string `json:"name"`
			}
			_ = json.Unmarshal(raw, &v)
			items = append(items, item{v.Name, raw})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })
	out := make([]json.RawMessage, len(items))
	for i, it := range items {
		out[i] = it.raw
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) fetchJSONList(r *http.Request, n *node) ([]json.RawMessage, error) {
	target := *n.url
	target.Path = strings.TrimSuffix(n.url.Path, "/") + r.URL.Path
	target.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), "GET", target.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if !requesterGone(r) {
			n.healthy.Store(false)
		}
		return nil, err
	}
	defer resp.Body.Close()
	n.healthy.Store(true)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var list []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list, nil
}

// ---------------------------------------------------------------------------
// Body-addressed traffic: the graph name lives in the JSON body.

// peekGraph buffers the body (bounded) and extracts the "graph" field.
func peekGraph(w http.ResponseWriter, r *http.Request) (string, []byte, bool) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxPeekBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "router: reading request body: %v", err)
		return "", nil, false
	}
	if len(data) > maxPeekBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "router: request body exceeds the %d-byte routing limit", maxPeekBytes)
		return "", nil, false
	}
	var v struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		writeError(w, http.StatusBadRequest, "router: parsing request body: %v", err)
		return "", nil, false
	}
	if v.Graph == "" {
		writeError(w, http.StatusBadRequest, "router: request body has no graph field to route on")
		return "", nil, false
	}
	return v.Graph, data, true
}

func (rt *Router) handleEstimate(w http.ResponseWriter, r *http.Request) {
	name, body, ok := peekGraph(w, r)
	if !ok {
		return
	}
	rt.stats.ProxiedReads.Add(1)
	rt.forward(w, r, rt.groupFor(name).readNode(), 0, bytes.NewReader(body), nil)
}

// ---------------------------------------------------------------------------
// Jobs: sticky routing by node-suffixed id.

// splitJobID parses "<id>@<group>/<node>" back into its parts.
func (rt *Router) splitJobID(id string) (inner string, n *node, ok bool) {
	i := strings.LastIndex(id, "@")
	if i < 0 {
		return "", nil, false
	}
	n, ok = rt.byName[id[i+1:]]
	return id[:i], n, ok
}

// suffixJobIDs rewrites the "id" field of a job object (or each element
// of a job array) to "<id>@<node>", making the id self-routing.
func suffixJobIDs(data []byte, nodeName string) []byte {
	stamp := func(raw json.RawMessage) json.RawMessage {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(raw, &obj); err != nil {
			return raw
		}
		var id string
		if err := json.Unmarshal(obj["id"], &id); err != nil || id == "" {
			return raw
		}
		idRaw, _ := json.Marshal(id + "@" + nodeName)
		obj["id"] = idRaw
		out, err := json.Marshal(obj)
		if err != nil {
			return raw
		}
		return out
	}
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var list []json.RawMessage
		if err := json.Unmarshal(trimmed, &list); err != nil {
			return data
		}
		for i, raw := range list {
			list[i] = stamp(raw)
		}
		out, err := json.Marshal(list)
		if err != nil {
			return data
		}
		return out
	}
	return stamp(data)
}

func (rt *Router) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	name, body, ok := peekGraph(w, r)
	if !ok {
		return
	}
	n := rt.groupFor(name).readNode()
	rt.stats.JobsRouted.Add(1)
	rt.forward(w, r, n, 0, bytes.NewReader(body), func(data []byte) []byte {
		return suffixJobIDs(data, n.name)
	})
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	inner, n, ok := rt.splitJobID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "router: job id %q carries no known node suffix", r.PathValue("id"))
		return
	}
	rt.stats.JobsRouted.Add(1)
	// Rebuild the path with the node-local id.
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/jobs/" + inner + strings.TrimPrefix(r.URL.Path, "/jobs/"+r.PathValue("id"))
	rewrite := func(data []byte) []byte { return suffixJobIDs(data, n.name) }
	if strings.HasSuffix(r.URL.Path, "/result") || strings.HasSuffix(r.URL.Path, "/progress") || strings.HasSuffix(r.URL.Path, "/stream") {
		rewrite = nil // stream large/SSE payloads; they carry no routable id
	}
	rt.forward(w, r2, n, 0, nil, rewrite)
}

// handleListJobs fans GET /jobs across every node and merges the job
// arrays, each id suffixed with its owning node.
func (rt *Router) handleListJobs(w http.ResponseWriter, r *http.Request) {
	var out []json.RawMessage
	for _, g := range rt.groups {
		for _, n := range g.nodes {
			if !n.healthy.Load() {
				continue
			}
			list, err := rt.fetchJSONList(r, n)
			if err != nil {
				continue // a dead node's jobs are unreachable, not fatal
			}
			for _, raw := range list {
				out = append(out, json.RawMessage(suffixJobIDs(raw, n.name)))
			}
		}
	}
	rt.stats.JobsRouted.Add(1)
	writeJSON(w, http.StatusOK, out)
}

// ---------------------------------------------------------------------------
// Router introspection.

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// groupView is one group in GET /router/groups and /stats.
type groupView struct {
	Name       string     `json:"name"`
	Generation uint64     `json:"generation"`
	Primary    string     `json:"primary"`
	Nodes      []nodeView `json:"nodes"`
}

type nodeView struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Role       string `json:"role"`
	Healthy    bool   `json:"healthy"`
	MaxVersion uint64 `json:"maxVersion"`
}

func (rt *Router) groupViews() []groupView {
	out := make([]groupView, len(rt.groups))
	for i, g := range rt.groups {
		g.mu.Lock()
		gv := groupView{Name: g.name, Generation: g.generation, Primary: g.nodes[g.primary].name}
		for j, n := range g.nodes {
			role := replica.RoleReplica
			if j == g.primary {
				role = replica.RolePrimary
			}
			n.mu.Lock()
			mv := n.maxVersion
			n.mu.Unlock()
			gv.Nodes = append(gv.Nodes, nodeView{
				Name: n.name, URL: n.url.String(), Role: role,
				Healthy: n.healthy.Load(), MaxVersion: mv,
			})
		}
		g.mu.Unlock()
		out[i] = gv
	}
	return out
}

func (rt *Router) handleGroups(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.groupViews())
}

// routerStats is the router's one stats document: the GET /stats body
// and, as Router.stats, the storage of its counters. A field's tags are
// its whole declaration — `json` the /stats key, `prom` and `help` the
// /metrics series promtext.Writer.Struct derives; a new counter is one
// tagged field here plus a row in docs/OPERATIONS.md's metrics
// reference. The plain fields are gauges statsSnapshot fills per read;
// the two tagged `json:"-"` are series /stats shows only as the groups
// array.
type routerStats struct {
	UptimeSeconds float64          `json:"uptimeSeconds" prom:"nucleusrouter_uptime_seconds" help:"Seconds since the router started."`
	Requests      promtext.Counter `json:"requests" prom:"nucleusrouter_requests_total" help:"HTTP requests received."`
	ProxiedReads  promtext.Counter `json:"proxiedReads" prom:"nucleusrouter_proxied_reads_total" help:"Read requests proxied to replicas."`
	ProxiedWrites promtext.Counter `json:"proxiedWrites" prom:"nucleusrouter_proxied_writes_total" help:"Mutations proxied to group primaries."`
	ProxyErrors   promtext.Counter `json:"proxyErrors" prom:"nucleusrouter_proxy_errors_total" help:"Proxied requests that failed in transit."`
	FencedWrites  promtext.Counter `json:"fencedWrites" prom:"nucleusrouter_fenced_writes_total" help:"Proxied writes a node's generation fence rejected."`
	JobsRouted    promtext.Counter `json:"jobsRouted" prom:"nucleusrouter_jobs_routed_total" help:"Job requests routed by node-suffixed id."`
	Checks        promtext.Counter `json:"checks" prom:"nucleusrouter_checks_total" help:"Fleet health sweeps performed."`
	FailedChecks  promtext.Counter `json:"failedChecks" prom:"nucleusrouter_failed_checks_total" help:"Group checks that ended degraded."`
	Promotions    promtext.Counter `json:"promotions" prom:"nucleusrouter_promotions_total" help:"Replica promotions this router performed."`
	GroupCount    int              `json:"-" prom:"nucleusrouter_groups" help:"Configured shard groups."`
	NodesHealthy  int              `json:"-" prom:"nucleusrouter_nodes_healthy" help:"Fleet nodes whose last contact succeeded."`
	Groups        []groupView      `json:"groups"`
}

// statsSnapshot is the one read of the stats document, behind both
// GET /stats and GET /metrics: the counters as of now, plus the gauges.
func (rt *Router) statsSnapshot() *routerStats {
	st := promtext.Snapshot(&rt.stats)
	st.UptimeSeconds = time.Since(rt.start).Seconds()
	st.Groups = rt.groupViews()
	st.GroupCount = len(st.Groups)
	for _, gv := range st.Groups {
		for _, nv := range gv.Nodes {
			if nv.Healthy {
				st.NodesHealthy++
			}
		}
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.statsSnapshot())
}

// handleMetrics serves GET /metrics: the stats document in Prometheus
// text format, plus the fleet topology the router believes in as
// families labeled by group and node. A promotion shows up as
// nucleusrouter_group_generation ticking up and the 1 moving between
// nodes on nucleusrouter_node_primary.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := rt.statsSnapshot()
	var p promtext.Writer
	p.Struct(st)
	for _, gv := range st.Groups {
		p.LabeledGauge("nucleusrouter_group_generation", "Cluster generation the router stamps on this group's writes.",
			map[string]string{"group": gv.Name}, float64(gv.Generation))
		for _, nv := range gv.Nodes {
			nl := map[string]string{"group": gv.Name, "node": nv.Name}
			p.LabeledGauge("nucleusrouter_node_healthy", "1 when the node's last probe or proxy succeeded.", nl, promtext.Bool(nv.Healthy))
			p.LabeledGauge("nucleusrouter_node_primary", "1 for the node the router treats as the group's primary.", nl, promtext.Bool(nv.Role == replica.RolePrimary))
			p.LabeledGauge("nucleusrouter_node_max_version", "Highest graph version the node reported on its last probe.", nl, float64(nv.MaxVersion))
		}
	}
	w.Header().Set("Content-Type", promtext.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(p.Bytes())
}

func (rt *Router) handleCheck(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, rt.CheckOnce())
}

// ---------------------------------------------------------------------------
// Small JSON helpers (mirroring internal/server's, unexported there).

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
