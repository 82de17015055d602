package server

import (
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/replica"
	"nucleus/internal/store"
)

// foreignCores are core-number lists that cannot belong to K5 plus the
// pendant edge 0-5 (vertex 5 has degree 1, the graph 6 vertices), each with
// the text its refusal must carry.
var foreignCores = []struct {
	name  string
	cores []store.CoreChange
	want  string
}{
	{"vertex past the graph", []store.CoreChange{{V: 9, Kappa: 1}}, "vertex 9, past the vertex count 6"},
	{"negative core number", []store.CoreChange{{V: 5, Kappa: -1}}, "negative core number -1 of vertex 5"},
	{"above the degree", []store.CoreChange{{V: 5, Kappa: 2}}, "core number 2 of vertex 5, above its degree 1"},
}

// pendantBatch adds the edge 0-5 to K5.
var pendantBatch = mutateRequest{Edits: []edgeOp{{Op: "add", U: 0, V: 5}}}

// tamperStore is a filesystem store (a replication source) that logs every
// batch with the core-number list cores in place of its own.
type tamperStore struct {
	*store.FS
	cores []store.CoreChange
}

func (ts *tamperStore) AppendBatch(name string, version uint64, b *store.Batch) (int, error) {
	forged := *b
	forged.Cores = ts.cores
	return ts.FS.AppendBatch(name, version, &forged)
}

// TestReplicaRefusesForeignCores: a shipped batch whose core-number list
// does not fit the graph is not installed. The pull fails with an error
// naming the graph, the version and the vertex; the replica publishes
// nothing and tails the log again on the next pull, failing the same way.
func TestReplicaRefusesForeignCores(t *testing.T) {
	for _, tc := range foreignCores {
		t.Run(tc.name, func(t *testing.T) {
			pts, ps := testServerWith(t, Config{
				Workers:     2,
				Store:       &tamperStore{FS: openFS(t, t.TempDir()), cores: tc.cores},
				Replication: ReplicationConfig{Role: replica.RolePrimary, Generation: 1},
			})
			rts, rs := newReplica(t, pts.URL, 1)
			doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader(edgeListBody(graph.Complete(5))), nil)
			pull(t, rts.URL, http.StatusOK)
			before, _ := rs.reg.get("g")

			if resp := postJSON(t, pts.URL+"/graphs/g/edges", pendantBatch, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch: status %d", resp.StatusCode)
			}
			version := ps.reg.maxVersion()
			for try := range 2 {
				ns := pull(t, rts.URL, http.StatusBadGateway)
				for _, want := range []string{`graph "g"`, "version " + strconv.FormatUint(version, 10), tc.want} {
					if !strings.Contains(ns.LastError, want) {
						t.Fatalf("pull %d: lastError %q does not name %q", try, ns.LastError, want)
					}
				}
				if ns.Status.BatchesApplied != 0 {
					t.Fatalf("pull %d: %d batches applied", try, ns.Status.BatchesApplied)
				}
				if after, _ := rs.reg.get("g"); after != before {
					t.Fatalf("pull %d: the replica published version %d", try, after.version)
				}
			}
		})
	}
}

// TestRecoveryRefusesForeignCores: a logged batch whose core-number list
// does not fit the graph fails that graph's recovery — counted in
// persistence.errors, the error naming the version and the vertex — while
// the other graphs recover.
func TestRecoveryRefusesForeignCores(t *testing.T) {
	for _, tc := range foreignCores {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := openFS(t, dir)
			k5 := graph.Complete(5)
			for _, name := range []string{"g", "ok"} {
				snap := &store.Snapshot{Meta: store.Meta{Version: 1}, Graph: k5, Kappa: []int32{4, 4, 4, 4, 4}}
				if err := fs.SaveSnapshot(name, snap); err != nil {
					t.Fatal(err)
				}
			}
			forged := &store.Batch{Edits: []store.BatchOp{{Op: store.OpAdd, U: 0, V: 5}}, Cores: tc.cores, HasCores: true}
			if _, err := fs.AppendBatch("g", 2, forged); err != nil {
				t.Fatal(err)
			}
			good := *forged
			good.Cores = []store.CoreChange{{V: 5, Kappa: 1}}
			if _, err := fs.AppendBatch("ok", 2, &good); err != nil {
				t.Fatal(err)
			}

			s := New(Config{Store: openFS(t, dir), WALCompactBytes: -1})
			defer s.Close()
			if _, ok := s.reg.get("g"); ok {
				t.Fatal("the graph with the foreign list was recovered")
			}
			if e, ok := s.reg.get("ok"); !ok || e.version != 2 || !slices.Equal(e.coreKappa, []int32{4, 4, 4, 4, 4, 1}) {
				t.Fatalf("the other graph: %+v (ok %v)", e, ok)
			}
			if got := s.stats.Persistence.Errors.Load(); got != 1 {
				t.Fatalf("persistence.errors = %d, want 1", got)
			}
			snap, batches, err := openFS(t, dir).Load("g")
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.rebuildEntry("g", snap, batches)
			if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rebuildEntry: %v; want an error naming version 2 and %q", err, tc.want)
			}
		})
	}
}

// TestFormat2LogReplaysAndShips: a data directory whose log the format-2
// encoder wrote (no core numbers in its frames) recovers, by repair, to
// the cold peel's κ; a replica tails it, and the batch the recovered node
// appends to it, to the same state; and a second restart reads all three.
func TestFormat2LogReplaysAndShips(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS("../store/testdata/walformat2")); err != nil {
		t.Fatal(err)
	}
	pts, ps := testServerWith(t, Config{
		Workers:     2,
		Store:       openFS(t, dir),
		Replication: ReplicationConfig{Role: replica.RolePrimary, Generation: 1},
	})
	rts, rs := newReplica(t, pts.URL, 1)
	exact := func(when string, s *Server, version uint64) {
		t.Helper()
		e, ok := s.reg.get("g")
		if !ok || e.version != version {
			t.Fatalf("%s: %+v (ok %v), want version %d", when, e, ok, version)
		}
		if want := peel.Run(nucleus.NewCore(e.g)).Kappa; !slices.Equal(e.coreKappa, want) {
			t.Fatalf("%s: κ %v, cold peel %v", when, e.coreKappa, want)
		}
		if p, _ := ps.reg.get("g"); p.g.N() != e.g.N() || !reflect.DeepEqual(p.g.Edges(), e.g.Edges()) {
			t.Fatalf("%s: edges differ from the primary's", when)
		}
	}
	exact("recovered", ps, 5)
	pull(t, rts.URL, http.StatusOK)
	exact("replica", rs, 5)

	if resp := postJSON(t, pts.URL+"/graphs/g/edges", mutateRequest{Edits: []edgeOp{{Op: "add", U: 6, V: 0}, {Op: "add", U: 6, V: 1}}}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", resp.StatusCode)
	}
	exact("primary after a batch", ps, 6)
	pull(t, rts.URL, http.StatusOK)
	exact("replica after a batch", rs, 6)

	restarted := New(Config{Store: openFS(t, dir), WALCompactBytes: -1})
	defer restarted.Close()
	exact("restarted", restarted, 6)
	if got := restarted.stats.Persistence.ReplayedBatches.Load(); got != 3 {
		t.Fatalf("restart replayed %d batches, want 3", got)
	}
}
