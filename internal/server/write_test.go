package server

import (
	"errors"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/replica"
	"nucleus/internal/store"
)

// faultStore is a durable store whose calls a test can intercept: a
// non-nil hook runs before the real call (it may observe the server, or
// block), and a non-nil error from it is the call's, in place of the real
// call.
type faultStore struct {
	store.Store
	saveSnapshot, appendBatch, delete func(name string) error
}

func (f *faultStore) SaveSnapshot(name string, snap *store.Snapshot) error {
	if f.saveSnapshot != nil {
		if err := f.saveSnapshot(name); err != nil {
			return err
		}
	}
	return f.Store.SaveSnapshot(name, snap)
}

func (f *faultStore) AppendBatch(name string, version uint64, b *store.Batch) (int, error) {
	if f.appendBatch != nil {
		if err := f.appendBatch(name); err != nil {
			return 0, err
		}
	}
	return f.Store.AppendBatch(name, version, b)
}

func (f *faultStore) Delete(name string) error {
	if f.delete != nil {
		if err := f.delete(name); err != nil {
			return err
		}
	}
	return f.Store.Delete(name)
}

// faultServer is a server over a faultStore with the complete graph K5
// uploaded as "g".
func faultServer(t *testing.T) (string, *Server, *faultStore) {
	t.Helper()
	fs := &faultStore{Store: openFS(t, t.TempDir())}
	ts, s := testServerWith(t, Config{Store: fs})
	if resp := doJSON(t, "POST", ts.URL+"/graphs/g", strings.NewReader(edgeListBody(graph.Complete(5))), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	return ts.URL, s, fs
}

// TestUploadInvisibleUntilDurable: an upload whose snapshot cannot be
// written is never observable — not while the write is in progress, not
// afterwards — and the graph it would have displaced is served throughout
// (ROADMAP aim 3: an unacknowledged write is wholly absent).
func TestUploadInvisibleUntilDurable(t *testing.T) {
	for _, tc := range []struct {
		name       string // graph uploaded while SaveSnapshot fails
		wantStatus int    // of GET /graphs/{name} during and after
	}{
		{"g", http.StatusOK},       // re-upload over the healthy K5
		{"h", http.StatusNotFound}, // brand-new name
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, _, fs := faultServer(t)
			var before graphView
			doJSON(t, "GET", base+"/graphs/g", nil, &before)
			observe := func(when string) {
				var gv graphView
				resp := doJSON(t, "GET", base+"/graphs/"+tc.name, nil, &gv)
				if resp.StatusCode != tc.wantStatus {
					t.Errorf("%s: GET /graphs/%s status %d, want %d", when, tc.name, resp.StatusCode, tc.wantStatus)
				}
				if tc.wantStatus == http.StatusOK && gv != before {
					t.Errorf("%s: serving %+v, want the displaced graph %+v", when, gv, before)
				}
			}
			fs.saveSnapshot = func(string) error {
				observe("during the snapshot write")
				return errors.New("disk full")
			}
			var er errorResponse
			resp := doJSON(t, "POST", base+"/graphs/"+tc.name, strings.NewReader(edgeListBody(graph.Complete(8))), &er)
			if want := `persisting graph "` + tc.name + `": disk full`; resp.StatusCode != http.StatusInternalServerError || er.Error != want {
				t.Fatalf("failed upload: status %d %q, want 500 %q", resp.StatusCode, er.Error, want)
			}
			observe("after the failed upload")
			if st := getStats(t, base); st.Persistence.Errors.Load() != 1 {
				t.Fatalf("persistence.errors = %d, want 1", st.Persistence.Errors.Load())
			}
			// The displaced graph is still writable, at versions above the
			// one the failed upload burned.
			fs.saveSnapshot = nil
			var mr mutateResponse
			if resp := postJSON(t, base+"/graphs/g/edges", mutateRequest{GrowTo: 6, Edits: []edgeOp{{Op: "add", U: 0, V: 5}}}, &mr); resp.StatusCode != http.StatusOK || mr.Version <= before.Version || mr.N != 6 {
				t.Fatalf("mutation after failed upload: status %d %+v", resp.StatusCode, mr)
			}
		})
	}
}

// TestWritePathErrorsReachClient pins the status and message of every
// write-pipeline error as the client sees it, and the replica's text for
// the two a shipped batch can hit.
func TestWritePathErrorsReachClient(t *testing.T) {
	oneAdd := mutateRequest{Edits: []edgeOp{{Op: "add", U: 0, V: 7}}}
	for _, tc := range []struct {
		name              string
		arm               func(s *Server, fs *faultStore)
		method            string
		path              string
		body              any
		wantStatus        int
		wantError         string
		wantPersistErrors int64
		unpublished       bool // the graph keeps its version, now and after a restart
	}{
		{
			name: "mutate unknown graph", method: "POST", path: "/graphs/nope/edges", body: oneAdd,
			wantStatus: http.StatusNotFound, wantError: `unknown graph "nope"`,
		},
		{
			name: "delete unknown graph", method: "DELETE", path: "/graphs/nope",
			wantStatus: http.StatusNotFound, wantError: `unknown graph "nope"`,
		},
		{
			name: "oversize growth", method: "POST", path: "/graphs/g/edges",
			body:       mutateRequest{GrowTo: maxGenVertices + 1, Edits: []edgeOp{{Op: "add", U: 0, V: 1}}},
			wantStatus: http.StatusBadRequest,
			wantError:  "mutation would grow the graph to 33554433 vertices, exceeding the limit of 33554432",
		},
		{
			// The frame lands after the apply and before the publish, so a
			// failed append leaves nothing to serve and nothing to replay.
			name: "WAL append failure", method: "POST", path: "/graphs/g/edges", body: oneAdd,
			arm: func(_ *Server, fs *faultStore) {
				fs.appendBatch = func(string) error { return errors.New("disk full") }
			},
			wantStatus: http.StatusInternalServerError, wantError: "writing batch to the WAL: disk full",
			wantPersistErrors: 1, unpublished: true,
		},
		{
			// A store in its failed state refuses the write, and says why.
			name: "store failed", method: "POST", path: "/graphs/g/edges", body: oneAdd,
			arm: func(_ *Server, fs *faultStore) {
				fs.appendBatch = func(string) error { return store.ErrFailed }
			},
			wantStatus: http.StatusInternalServerError, wantError: "writing batch to the WAL: " + store.ErrFailed.Error(),
			wantPersistErrors: 1, unpublished: true,
		},
		{
			// Uploads and deletes take the batch's lock, so only a bug can
			// replace a graph under a batch; stand in for one by publishing
			// behind the pipeline's back from inside its WAL append.
			name: "replaced concurrently", method: "POST", path: "/graphs/g/edges", body: oneAdd,
			arm: func(s *Server, fs *faultStore) {
				fs.appendBatch = func(string) error {
					s.reg.publish(&graphEntry{name: "g", g: graph.Complete(3), version: s.reg.mint()}, nil)
					return nil
				}
			},
			wantStatus: http.StatusConflict, wantError: `graph "g" was replaced concurrently; re-fetch and retry`,
		},
		{
			name: "delete with store error", method: "DELETE", path: "/graphs/g",
			arm: func(_ *Server, fs *faultStore) {
				fs.delete = func(string) error { return errors.New("permission denied") }
			},
			wantStatus:        http.StatusInternalServerError,
			wantError:         `graph "g" removed from memory, but deleting its persisted data failed: permission denied`,
			wantPersistErrors: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, s, fs := faultServer(t)
			before, _ := s.reg.get("g")
			if tc.arm != nil {
				tc.arm(s, fs)
			}
			var er errorResponse
			var resp *http.Response
			if tc.body != nil {
				resp = postJSON(t, base+tc.path, tc.body, &er)
			} else {
				resp = doJSON(t, tc.method, base+tc.path, nil, &er)
			}
			if resp.StatusCode != tc.wantStatus || er.Error != tc.wantError {
				t.Fatalf("status %d %q, want %d %q", resp.StatusCode, er.Error, tc.wantStatus, tc.wantError)
			}
			if got := getStats(t, base).Persistence.Errors.Load(); got != tc.wantPersistErrors {
				t.Fatalf("persistence.errors = %d, want %d", got, tc.wantPersistErrors)
			}
			if tc.unpublished {
				restarted := New(Config{Store: fs.Store, WALCompactBytes: -1})
				defer restarted.Close()
				for route, s := range map[string]*Server{"live": s, "restart": restarted} {
					if e, _ := s.reg.get("g"); e.version != before.version || e.g.M() != before.g.M() {
						t.Fatalf("%s: graph at version %d with %d edges, want %d with %d", route, e.version, e.g.M(), before.version, before.g.M())
					}
				}
			}
		})
	}

	// The puller records an applier error's text verbatim as lastError.
	_, s, _ := faultServer(t)
	live, _ := s.reg.get("g")
	for _, tc := range []struct {
		graph string
		batch store.Batch
		want  string
	}{
		{"nope", store.Batch{GrowTo: 9}, `replicated batch for unknown graph "nope"`},
		{"g", store.Batch{GrowTo: maxGenVertices + 1},
			`replicated batch would grow graph "g" to 33554433 vertices, exceeding the limit of 33554432`},
	} {
		applied, err := replApplier{s}.ApplyBatch(tc.graph, &tc.batch, live.version+1)
		if applied || err == nil || err.Error() != tc.want {
			t.Errorf("ApplyBatch(%q): applied=%v err=%v, want %q", tc.graph, applied, err, tc.want)
		}
	}
}

// TestNoOpBatchAppendsNothing: a batch that changes nothing is neither
// published nor logged — the WAL keeps its size — while a batch that
// changes the graph appends exactly one frame.
func TestNoOpBatchAppendsNothing(t *testing.T) {
	base, s, fs := faultServer(t)
	var appends atomic.Int32
	fs.appendBatch = func(string) error { appends.Add(1); return nil }
	size := fs.WALSize("g")
	noop := mutateRequest{Edits: []edgeOp{{Op: "add", U: 0, V: 1}, {Op: "remove", U: 0, V: 9}, {Op: "add", U: 2, V: 2}}}
	if resp := postJSON(t, base+"/graphs/g/edges", noop, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("no-op batch: status %d", resp.StatusCode)
	}
	if got := fs.WALSize("g"); got != size || appends.Load() != 0 {
		t.Fatalf("no-op batch: WAL %d -> %d bytes, %d appends", size, got, appends.Load())
	}
	if resp := postJSON(t, base+"/graphs/g/edges", mutateRequest{Edits: []edgeOp{{Op: "add", U: 0, V: 5}}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	if st := getStats(t, base); fs.WALSize("g") <= size || appends.Load() != 1 || st.Persistence.WALAppends.Load() != 1 {
		t.Fatalf("batch: WAL %d -> %d bytes, %d appends, walAppends %d", size, fs.WALSize("g"), appends.Load(), st.Persistence.WALAppends.Load())
	}
	if e, _ := s.reg.get("g"); e.mutations != 1 {
		t.Fatalf("mutations = %d, want 1", e.mutations)
	}
}

// heldAppend is a store whose AppendBatch reports the version it landed
// and then does not return until released: a node that dies between a
// batch's append and its publish.
type heldAppend struct {
	store.Store
	landed  chan uint64
	release chan struct{}
}

func (h *heldAppend) AppendBatch(name string, version uint64, b *store.Batch) (int, error) {
	n, err := h.Store.AppendBatch(name, version, b)
	h.landed <- version
	<-h.release
	return n, err
}

// TestAppendedBatchReplaysAtItsVersion: a batch whose append returned but
// whose publish never ran is durable — a restart serves it at exactly the
// version its frame carries — and, while the append is held, the node has
// not published it: the frame comes first.
func TestAppendedBatchReplaysAtItsVersion(t *testing.T) {
	dir := t.TempDir()
	held := &heldAppend{Store: openFS(t, dir), landed: make(chan uint64, 1), release: make(chan struct{})}
	ts, s := testServerWith(t, Config{Store: held})
	var releaseOnce sync.Once // runs before the server's cleanup, which waits for the held request
	t.Cleanup(func() { releaseOnce.Do(func() { close(held.release) }) })
	if code := send("POST", ts.URL+"/graphs/g", edgeListBody(graph.Complete(5))); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	before, _ := s.reg.get("g")
	done := make(chan int, 1)
	go func() { done <- send("POST", ts.URL+"/graphs/g/edges", editBody(0, 5)) }()
	v := <-held.landed
	if e, _ := s.reg.get("g"); e.version != before.version {
		t.Fatalf("version %d published before its append returned (was %d)", e.version, before.version)
	}

	restarted := New(Config{Store: openFS(t, dir), WALCompactBytes: -1})
	defer restarted.Close()
	e, ok := restarted.reg.get("g")
	if !ok || e.version != v || e.mutations != before.mutations+1 || e.g.N() != 6 || !e.g.HasEdge(0, 5) {
		t.Fatalf("restart: %+v (ok %v), want version %d with edge 0-5", e, ok, v)
	}

	releaseOnce.Do(func() { close(held.release) })
	if code := <-done; code != http.StatusOK {
		t.Fatalf("held batch: status %d", code)
	}
	if e, _ := s.reg.get("g"); e.version != v {
		t.Fatalf("live version %d, want %d", e.version, v)
	}
}

// TestThreeRoutesOneStateProperty: a client write on a durable primary, the
// same write shipped to a replica, and the same write replayed by a
// restart all run one pipeline, so after every batch of a random workload
// (randomBatch: adds, removes, duplicates, self-loops, growTo, fully no-op
// batches) the three hold the same graph at the same version with the same
// maintained core numbers — which are the cold peel's — the replica never
// decomposes cold, and re-delivering a batch at a version already reached
// changes nothing.
func TestThreeRoutesOneStateProperty(t *testing.T) {
	dir := e2eDataDir(t)
	pts, ps := testServerWith(t, Config{
		Workers:     2,
		Store:       openFS(t, dir),
		Replication: ReplicationConfig{Role: replica.RolePrimary, Generation: 1},
	})
	rts, rs := newReplica(t, pts.URL, 1)

	rng := rand.New(rand.NewSource(4321))
	cur := graph.GnM(40, 110, 3) // test-side mirror of the primary's graph
	doJSON(t, "POST", pts.URL+"/graphs/rnd", strings.NewReader(edgeListBody(cur)), nil)

	mutated := false
	for batch := 0; batch < 12; batch++ {
		req, edits := randomBatch(rng, cur, batch%4 == 0)
		cur = graph.ApplyEdits(cur, req.GrowTo, edits)
		if resp := postJSON(t, pts.URL+"/graphs/rnd/edges", req, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d", batch, resp.StatusCode)
		}
		pull(t, rts.URL, http.StatusOK)
		// The restart opens the primary's directory beside the (idle)
		// primary: recovery only reads an intact log.
		st3 := openFS(t, dir)
		restarted := New(Config{Store: st3, WALCompactBytes: -1})

		want, _ := ps.reg.get("rnd")
		if want.g.N() != cur.N() || !reflect.DeepEqual(want.g.Edges(), cur.Edges()) {
			t.Fatalf("batch %d: primary (%d,%d) drifted from the mirror (%d,%d)", batch, want.g.N(), want.g.M(), cur.N(), cur.M())
		}
		if mutated = mutated || want.mutations > 0; mutated {
			if !reflect.DeepEqual(want.coreKappa, peel.Run(nucleus.NewCore(cur)).Kappa) {
				t.Fatalf("batch %d: primary's maintained κ is not the cold peel's", batch)
			}
		}
		for route, s := range map[string]*Server{"replica": rs, "restart": restarted} {
			got, ok := s.reg.get("rnd")
			if !ok {
				t.Fatalf("batch %d: %s has no graph", batch, route)
			}
			if got.version != want.version || got.mutations != want.mutations ||
				got.g.N() != want.g.N() || got.g.M() != want.g.M() ||
				!reflect.DeepEqual(got.g.Edges(), want.g.Edges()) ||
				!reflect.DeepEqual(got.coreKappa, want.coreKappa) {
				t.Fatalf("batch %d: %s at version %d mutations %d (n=%d m=%d), primary at version %d mutations %d (n=%d m=%d), or edges/κ differ",
					batch, route, got.version, got.mutations, got.g.N(), got.g.M(), want.version, want.mutations, want.g.N(), want.g.M())
			}
		}
		restarted.Close()
		if err := st3.Close(); err != nil {
			t.Fatal(err)
		}

		// Re-delivery: a batch that would visibly change the graph, at the
		// version the replica already reached and at the oldest one.
		before, _ := rs.reg.get("rnd")
		batches := getStats(t, rts.URL).Mutations.Batches.Load()
		for _, at := range []uint64{before.version, 1} {
			applied, err := replApplier{rs}.ApplyBatch("rnd", &store.Batch{GrowTo: before.g.N() + 3}, at)
			if applied || err != nil {
				t.Fatalf("batch %d: re-delivery at version %d: applied=%v err=%v", batch, at, applied, err)
			}
		}
		if after, _ := rs.reg.get("rnd"); after != before || getStats(t, rts.URL).Mutations.Batches.Load() != batches {
			t.Fatalf("batch %d: re-delivery changed the replica", batch)
		}

		if mutated {
			// Reads land on replicas: the first one at each new version is
			// already answered by the unconditional warm seed.
			var jv jobView
			postJSON(t, rts.URL+"/jobs", map[string]any{"graph": "rnd", "decomposition": "core", "algorithm": "and"}, &jv)
			if !jv.Cached || jv.State != JobDone {
				t.Fatalf("batch %d: replica core read not warm-seeded: %+v", batch, jv)
			}
		}
		if cold := getStats(t, rts.URL).Mutations.ColdRuns.Load(); cold != 0 {
			t.Fatalf("batch %d: replica paid %d cold runs", batch, cold)
		}
	}
	if !mutated {
		t.Fatal("the workload never changed the graph")
	}
}

// TestReplicaRetriesFailedCommit: a shipped batch whose frame the replica
// cannot append is not published there, and the next pull applies it
// again before anything that follows it, so the replica lands on the
// primary's graph rather than on the later batches without it.
func TestReplicaRetriesFailedCommit(t *testing.T) {
	pts, ps := testServerWith(t, Config{
		Workers:     2,
		Store:       openFS(t, t.TempDir()),
		Replication: ReplicationConfig{Role: replica.RolePrimary, Generation: 1},
	})
	fs := &faultStore{Store: openFS(t, t.TempDir())}
	rts, rs := testServerWith(t, Config{
		Workers: 2,
		Store:   fs,
		Replication: ReplicationConfig{
			Role: replica.RoleReplica, Primary: pts.URL, Generation: 1, PullInterval: -1,
		},
	})
	doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader(edgeListBody(graph.Complete(5))), nil)
	pull(t, rts.URL, http.StatusOK)

	for _, e := range [][2]uint32{{0, 5}, {1, 6}} { // shipped in one chunk
		if resp := postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{Edits: []edgeOp{{Op: "add", U: e[0], V: e[1]}}}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %v: status %d", e, resp.StatusCode)
		}
	}
	fs.appendBatch = func(string) error {
		fs.appendBatch = nil
		return errors.New("disk full")
	}
	if ns := pull(t, rts.URL, http.StatusBadGateway); !strings.Contains(ns.LastError, "disk full") {
		t.Fatalf("failed pull: lastError %q", ns.LastError)
	}
	// A batch behind the failed one, so the next pull has new bytes to
	// tail.
	postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{Edits: []edgeOp{{Op: "add", U: 2, V: 7}}}, nil)
	pull(t, rts.URL, http.StatusOK)
	want, _ := ps.reg.get("g")
	got, _ := rs.reg.get("g")
	if got.version != want.version || !reflect.DeepEqual(got.g.Edges(), want.g.Edges()) {
		t.Fatalf("replica at version %d with edges %v, primary at %d with %v", got.version, got.g.Edges(), want.version, want.g.Edges())
	}
}
