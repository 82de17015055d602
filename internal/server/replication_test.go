package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/replica"
)

// newPrimary spins up a durable primary node.
func newPrimary(t *testing.T, gen uint64) (*httptest.Server, *Server) {
	t.Helper()
	return testServerWith(t, Config{
		Workers: 2,
		Store:   openFS(t, e2eDataDir(t)),
		Replication: ReplicationConfig{
			Role:       replica.RolePrimary,
			Generation: gen,
		},
	})
}

// newReplica spins up a durable replica of primaryURL with the
// background pull loop disabled — tests drive POST /replication/pull.
func newReplica(t *testing.T, primaryURL string, gen uint64) (*httptest.Server, *Server) {
	t.Helper()
	return testServerWith(t, Config{
		Workers: 2,
		Store:   openFS(t, e2eDataDir(t)),
		Replication: ReplicationConfig{
			Role:         replica.RoleReplica,
			Primary:      primaryURL,
			Generation:   gen,
			PullInterval: -1,
		},
	})
}

// pull drives one replication cycle over HTTP and returns the node
// status it reports.
func pull(t *testing.T, replicaURL string, wantStatus int) replica.NodeStatus {
	t.Helper()
	var ns replica.NodeStatus
	resp := doJSON(t, "POST", replicaURL+"/replication/pull", nil, &ns)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /replication/pull: status %d (want %d), lastError %q", resp.StatusCode, wantStatus, ns.LastError)
	}
	return ns
}

// mutateStamped posts an edit batch stamped with a cluster generation.
func mutateStamped(t *testing.T, base, name string, gen string, edits ...[2]uint32) *http.Response {
	t.Helper()
	body := mutateRequest{}
	for _, e := range edits {
		body.Edits = append(body.Edits, edgeOp{Op: "add", U: e[0], V: e[1]})
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", base+"/graphs/"+name+"/edges", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if gen != "" {
		req.Header.Set(replica.GenerationHeader, gen)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestReplicationEndToEnd(t *testing.T) {
	pts, ps := newPrimary(t, 1)
	rts, rs := newReplica(t, pts.URL, 1)

	// Build state on the primary: an upload plus a few committed batches.
	if resp := doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n0 2\n"), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	var mr mutateResponse
	for i := uint32(3); i < 8; i++ {
		if resp := postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{
			Edits: []edgeOp{{Op: "add", U: 0, V: i}, {Op: "add", U: 1, V: i}},
		}, &mr); resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate: status %d", resp.StatusCode)
		}
	}

	ns := pull(t, rts.URL, http.StatusOK)
	if ns.LagVersions != 0 || ns.LagMs != 0 {
		t.Fatalf("replica still lagging after pull: %+v", ns)
	}
	if ns.SnapshotsInstalled == 0 {
		t.Fatalf("expected a snapshot resync on first contact: %+v", ns)
	}

	// The replica serves the graph at the primary's exact version with
	// bit-identical maintained core numbers.
	var pg, rg graphView
	doJSON(t, "GET", pts.URL+"/graphs/g", nil, &pg)
	if resp := doJSON(t, "GET", rts.URL+"/graphs/g", nil, &rg); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica GET /graphs/g: status %d", resp.StatusCode)
	}
	if rg.Version != pg.Version || rg.N != pg.N || rg.M != pg.M {
		t.Fatalf("replica view %+v != primary view %+v", rg, pg)
	}
	pk := allCoreNumbers(t, pts.URL, "g", pg.N)
	rk := allCoreNumbers(t, rts.URL, "g", rg.N)
	if !pk.Maintained || !rk.Maintained {
		t.Fatalf("maintained κ expected on both nodes: primary %v replica %v", pk.Maintained, rk.Maintained)
	}
	for i := range pk.CoreNumbers {
		if pk.CoreNumbers[i] != rk.CoreNumbers[i] {
			t.Fatalf("κ[%d]: primary %d, replica %d", i, pk.CoreNumbers[i], rk.CoreNumbers[i])
		}
	}

	// Reads on the replica decompose warm: the shipped κ seeded the
	// cache, so no cold run happens.
	var dec struct {
		Converged bool `json:"converged"`
	}
	if resp := doJSON(t, "GET", rts.URL+"/graphs/g/decompose?dec=core&alg=and", nil, &dec); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica decompose: status %d", resp.StatusCode)
	}
	if !dec.Converged {
		t.Fatal("replica decompose not converged")
	}
	if cold := getStats(t, rts.URL).Mutations.ColdRuns.Load(); cold != 0 {
		t.Fatalf("replica paid %d cold decompositions; want 0", cold)
	}

	// Writes bounce off the replica.
	if resp := mutateStamped(t, rts.URL, "g", "", [2]uint32{0, 9}); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica accepted a write: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", rts.URL+"/graphs/h", strings.NewReader("0 1\n"), nil); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("replica accepted an upload: status %d", resp.StatusCode)
	}

	// Incremental follow-up: more batches ship via the WAL, no snapshot.
	before := pull(t, rts.URL, http.StatusOK).SnapshotsInstalled
	for i := uint32(8); i < 11; i++ {
		postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{
			Edits: []edgeOp{{Op: "add", U: 2, V: i}},
		}, &mr)
	}
	ns = pull(t, rts.URL, http.StatusOK)
	if ns.SnapshotsInstalled != before {
		t.Fatalf("incremental batches triggered a resync: %d → %d snapshots", before, ns.SnapshotsInstalled)
	}
	if ns.BatchesApplied < 3 {
		t.Fatalf("expected ≥3 batches applied, got %d", ns.BatchesApplied)
	}
	doJSON(t, "GET", rts.URL+"/graphs/g", nil, &rg)
	if rg.Version != mr.Version {
		t.Fatalf("replica at version %d, primary acknowledged %d", rg.Version, mr.Version)
	}

	// Deletes propagate as drops.
	if resp := doJSON(t, "DELETE", pts.URL+"/graphs/g", nil, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	pull(t, rts.URL, http.StatusOK)
	if resp := doJSON(t, "GET", rts.URL+"/graphs/g", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replica still serves deleted graph: status %d", resp.StatusCode)
	}

	// White-box: registry version counters stayed coherent.
	if rv, pv := rs.reg.maxVersion(), ps.reg.maxVersion(); rv != pv {
		t.Fatalf("maxVersion: replica %d, primary %d", rv, pv)
	}
}

// TestCoreEntryIsMaintainedKappa: after a batch, on the primary and on the
// replica that applied it, the (core, and, 0) cache entry of the live
// version is the maintained κ itself — converged, equal to a cold peel of
// the served graph — and installing it ran no decomposition.
func TestCoreEntryIsMaintainedKappa(t *testing.T) {
	pts, ps := newPrimary(t, 1)
	rts, rs := newReplica(t, pts.URL, 1)
	g := graph.PowerLawCluster(300, 4, 0.5, 11)
	if resp := doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader(edgeListBody(g)), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	// Demonstrated interest: the primary seeds core only for a lineage that
	// had a cached result. This is its one cold run.
	doJSON(t, "GET", pts.URL+"/graphs/g/decompose?dec=core&alg=and", nil, nil)
	pull(t, rts.URL, http.StatusOK) // snapshot resync of the unmutated graph

	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 4; batch++ {
		req, edits := randomBatch(rng, g, false)
		g = graph.ApplyEdits(g, req.GrowTo, edits)
		var mr mutateResponse
		if resp := postJSON(t, pts.URL+"/graphs/g/edges", req, &mr); resp.StatusCode != http.StatusOK {
			t.Fatalf("mutate: status %d", resp.StatusCode)
		}
		pull(t, rts.URL, http.StatusOK)
		for node, s := range map[string]*Server{"primary": ps, "replica": rs} {
			e, _ := s.reg.get("g")
			if e == nil || e.version != mr.Version {
				t.Fatalf("%s: batch %d not live at version %d", node, batch, mr.Version)
			}
			res, ok := s.cache.peek(keyOf(e, "core", "and", 0))
			if !ok || !res.Converged {
				t.Fatalf("%s: batch %d left no converged core entry (found %v)", node, batch, ok)
			}
			want := peel.Run(nucleus.NewCore(e.g))
			if !slices.Equal(res.Kappa, want.Kappa) || res.MaxKappa != want.MaxKappa {
				t.Fatalf("%s: batch %d: core entry differs from a cold peel of the served graph", node, batch)
			}
		}
	}
	if cold := ps.stats.Mutations.ColdRuns.Load(); cold != 1 {
		t.Fatalf("primary ran %d cold decompositions, want the 1 before the first batch", cold)
	}
	if cold := rs.stats.Mutations.ColdRuns.Load(); cold != 0 {
		t.Fatalf("replica ran %d cold decompositions, want 0", cold)
	}
}

func TestGenerationFencing(t *testing.T) {
	pts, _ := newPrimary(t, 5)
	if resp := doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n"), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}

	// A correctly stamped write passes; unstamped writes pass too (the
	// stamp is the router's, direct clients do not carry one).
	if resp := mutateStamped(t, pts.URL, "g", "5", [2]uint32{0, 2}); resp.StatusCode != http.StatusOK {
		t.Fatalf("stamped write: status %d", resp.StatusCode)
	}
	if resp := mutateStamped(t, pts.URL, "g", "", [2]uint32{1, 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("unstamped write: status %d", resp.StatusCode)
	}

	// Stale and future stamps are fenced with 409.
	if resp := mutateStamped(t, pts.URL, "g", "4", [2]uint32{0, 4}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale-stamped write: status %d, want 409", resp.StatusCode)
	}
	if resp := mutateStamped(t, pts.URL, "g", "6", [2]uint32{0, 5}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("future-stamped write: status %d, want 409", resp.StatusCode)
	}
	if resp := mutateStamped(t, pts.URL, "g", "bogus", [2]uint32{0, 6}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk-stamped write: status %d, want 400", resp.StatusCode)
	}
	if fenced := getStats(t, pts.URL).Replication.FencedWrites.Load(); fenced != 2 {
		t.Fatalf("fencedWrites = %d, want 2", fenced)
	}
	// Fenced writes left no trace: the graph still has exactly the two
	// admitted batches' edges.
	var gv graphView
	doJSON(t, "GET", pts.URL+"/graphs/g", nil, &gv)
	if gv.M != 4 {
		t.Fatalf("m = %d after fenced writes, want 4", gv.M)
	}
}

func TestPromotionAndRepoint(t *testing.T) {
	pts, _ := newPrimary(t, 1)
	rts, _ := newReplica(t, pts.URL, 1)

	doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n0 2\n"), nil)
	var mr mutateResponse
	postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{Edits: []edgeOp{{Op: "add", U: 0, V: 3}}}, &mr)
	pull(t, rts.URL, http.StatusOK)

	// Promotion demands a strictly higher generation.
	var ns replica.NodeStatus
	if resp := postJSON(t, rts.URL+"/replication/promote", promoteRequest{Generation: 1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("promote at same generation: status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, rts.URL+"/replication/promote", promoteRequest{Generation: 2}, &ns); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}
	if ns.Role != replica.RolePrimary || ns.Generation != 2 {
		t.Fatalf("promoted status: %+v", ns)
	}
	// Idempotent re-promotion (router retry).
	if resp := postJSON(t, rts.URL+"/replication/promote", promoteRequest{Generation: 2}, &ns); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-promote: status %d", resp.StatusCode)
	}

	// The promoted node accepts writes at the new generation and serves
	// the acknowledged history.
	if resp := mutateStamped(t, rts.URL, "g", "2", [2]uint32{1, 3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("write on promoted node: status %d", resp.StatusCode)
	}
	var rg graphView
	doJSON(t, "GET", rts.URL+"/graphs/g", nil, &rg)
	if rg.Version != mr.Version+1 {
		t.Fatalf("promoted node at version %d, want %d", rg.Version, mr.Version+1)
	}

	// The deposed primary fences the new epoch's writes...
	if resp := mutateStamped(t, pts.URL, "g", "2", [2]uint32{2, 3}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("deposed primary accepted a gen-2 write: status %d", resp.StatusCode)
	}
	// ...and pulls/promotes cannot happen on the wrong roles.
	if resp := doJSON(t, "POST", pts.URL+"/replication/pull", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("pull on a primary: status %d, want 409", resp.StatusCode)
	}
	if resp := postJSON(t, rts.URL+"/replication/repoint", repointRequest{Primary: pts.URL}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("repoint on a primary: status %d, want 409", resp.StatusCode)
	}

	if promos := getStats(t, rts.URL).Replication.Promotions.Load(); promos != 1 {
		t.Fatalf("promotions = %d, want 1", promos)
	}
}

func TestRepointAdoptsNewPrimary(t *testing.T) {
	p1ts, _ := newPrimary(t, 1)
	p2ts, _ := newPrimary(t, 3) // stand-in for a freshly promoted node
	rts, _ := newReplica(t, p1ts.URL, 1)

	doJSON(t, "POST", p1ts.URL+"/graphs/a", strings.NewReader("0 1\n"), nil)
	pull(t, rts.URL, http.StatusOK)

	doJSON(t, "POST", p2ts.URL+"/graphs/b", strings.NewReader("0 1\n1 2\n"), nil)
	var ns replica.NodeStatus
	if resp := postJSON(t, rts.URL+"/replication/repoint", repointRequest{Primary: p2ts.URL, Generation: 3}, &ns); resp.StatusCode != http.StatusOK {
		t.Fatalf("repoint: status %d", resp.StatusCode)
	}
	if ns.Primary != p2ts.URL || ns.Generation != 3 {
		t.Fatalf("repointed status: %+v", ns)
	}
	// After repointing, the replica mirrors the new primary: b appears,
	// a (absent from the new manifest) is dropped.
	pull(t, rts.URL, http.StatusOK)
	if resp := doJSON(t, "GET", rts.URL+"/graphs/b", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("replica missing new primary's graph: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", rts.URL+"/graphs/a", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replica kept old primary's graph: status %d", resp.StatusCode)
	}

	// The old primary is now a stale source: pulls from it are refused.
	postJSON(t, rts.URL+"/replication/repoint", repointRequest{Primary: p1ts.URL}, nil)
	ns = pull(t, rts.URL, http.StatusBadGateway)
	if ns.StalePulls == 0 {
		t.Fatalf("pull from a stale source not counted: %+v", ns)
	}
}

func TestReplicationRequiresDurableStore(t *testing.T) {
	ts := testServer(t, Config{}) // null store
	for _, path := range []string{"/replication/manifest", "/replication/snapshot/g", "/replication/wal/g"} {
		if resp := doJSON(t, "GET", ts.URL+path, nil, nil); resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("GET %s on a null store: status %d, want 501", path, resp.StatusCode)
		}
	}
	// Status still answers, reporting standalone.
	var ns replica.NodeStatus
	if resp := doJSON(t, "GET", ts.URL+"/replication/status", nil, &ns); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /replication/status: status %d", resp.StatusCode)
	}
	if ns.Role != replica.RoleStandalone {
		t.Fatalf("role = %q, want standalone", ns.Role)
	}
	if resp := postJSON(t, ts.URL+"/replication/promote", promoteRequest{Generation: 1}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote on standalone: status %d, want 409", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	pts, _ := newPrimary(t, 7)
	doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n0 2\n"), nil)

	req, err := http.NewRequest("GET", pts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE nucleusd_requests_total counter",
		"nucleusd_graphs 1",
		`nucleusd_replication_role{role="primary"} 1`,
		`nucleusd_replication_role{role="replica"} 0`,
		"nucleusd_replication_generation 7",
		"nucleusd_replication_lag_versions 0",
		"nucleusd_replication_fenced_writes_total 0",
		"nucleusd_persist_enabled 1",
		"nucleusd_persist_snapshots_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Every nucleusd_* sample line's metric appears under exactly one
	// TYPE header (the format requires headers to precede samples).
	types := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !types[name] {
			t.Errorf("sample %q has no preceding TYPE header", line)
		}
	}
}

func TestReplicaSurvivesRestart(t *testing.T) {
	// A replica's applied state is durable: kill it (abandon without
	// Close), restart on the same data dir, and it resumes at the exact
	// version — then catches up incrementally.
	pts, _ := newPrimary(t, 1)
	doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader("0 1\n1 2\n0 2\n"), nil)
	var mr mutateResponse
	postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{Edits: []edgeOp{{Op: "add", U: 0, V: 3}}}, &mr)

	dir := e2eDataDir(t)
	cfg := Config{
		Workers: 2,
		Replication: ReplicationConfig{
			Role: replica.RoleReplica, Primary: pts.URL, Generation: 1, PullInterval: -1,
		},
	}
	cfg.Store = openFS(t, dir)
	r1 := New(cfg)
	rts1 := httptest.NewServer(r1)
	pull(t, rts1.URL, http.StatusOK)
	var rg graphView
	doJSON(t, "GET", rts1.URL+"/graphs/g", nil, &rg)
	v1 := rg.Version
	rts1.Close() // SIGKILL: no r1.Close()

	postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{Edits: []edgeOp{{Op: "add", U: 1, V: 4}}}, &mr)

	cfg.Store = openFS(t, dir)
	r2 := New(cfg)
	rts2 := httptest.NewServer(r2)
	t.Cleanup(func() { rts2.Close(); r2.Close() })
	doJSON(t, "GET", rts2.URL+"/graphs/g", nil, &rg)
	if rg.Version != v1 {
		t.Fatalf("restarted replica at version %d, want recovered %d", rg.Version, v1)
	}
	ns := pull(t, rts2.URL, http.StatusOK)
	doJSON(t, "GET", rts2.URL+"/graphs/g", nil, &rg)
	if rg.Version != mr.Version {
		t.Fatalf("restarted replica at version %d after pull, want %d (status %+v)", rg.Version, mr.Version, ns)
	}
	if ns.SnapshotsInstalled != 0 {
		t.Fatalf("restart should catch up via the WAL, not a resync: %+v", ns)
	}
}

// TestReplicationStatsSection checks that /stats carries the
// replication block on a replica, including lag while behind.
func TestReplicationStatsSection(t *testing.T) {
	pts, _ := newPrimary(t, 1)
	rts, _ := newReplica(t, pts.URL, 1)
	doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader("0 1\n"), nil)
	pull(t, rts.URL, http.StatusOK)
	st := getStats(t, rts.URL)
	r := &st.Replication
	if r.Role != replica.RoleReplica || r.Primary != pts.URL || r.Pulls == 0 {
		t.Fatalf("replication stats: %+v", jsonString(r))
	}
	if r.Generation != 1 {
		t.Fatalf("generation = %d, want 1", r.Generation)
	}
	if fmt.Sprint(r.LagVersions, r.LagMs) != "0 0" {
		t.Fatalf("caught-up replica reports lag: %+v", jsonString(r))
	}
}

// TestReplWALRejectsMalformedRange: a non-integer offset/limit is a 400
// that names the parameter and the value once (the error used to be a
// strconv.NumError wrapped in another, with no parameter name), and a
// negative offset is refused before the store is read.
func TestReplWALRejectsMalformedRange(t *testing.T) {
	pts, _ := newPrimary(t, 1)
	for query, want := range map[string]string{
		"offset=abc":                  `invalid offset="abc": want an integer`,
		"limit=1e3":                   `invalid limit="1e3": want an integer`,
		"offset=99999999999999999999": `invalid offset="99999999999999999999": want an integer`,
		"offset=-1":                   "offset must be non-negative, got -1",
	} {
		var er errorResponse
		resp := doJSON(t, "GET", pts.URL+"/replication/wal/g?"+query, nil, &er)
		if resp.StatusCode != http.StatusBadRequest || er.Error != want {
			t.Errorf("GET /replication/wal/g?%s: status %d, error %q; want 400, %q", query, resp.StatusCode, er.Error, want)
		}
	}
}
