package replica

// Fault injection for the replication stream. The fake primary serves
// REAL snapshot and WAL bytes — produced by the same store.FS codec a
// live primary ships from — and damages them on the wire the way the
// PR 4 store corruption tests damage them on disk: torn chunk
// boundaries, flipped bytes, duplicated ranges, stale generations, and
// mid-stream disconnects. The applier is a fake recording every install
// and apply, so exactly-once and nothing-applied properties are exact
// statements about the call log.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nucleus/internal/graph"
	"nucleus/internal/sched"
	"nucleus/internal/store"
)

// fakePrimary is an httptest-backed replication source over a real FS
// store, with per-request fault knobs.
type fakePrimary struct {
	t  *testing.T
	fs *store.FS

	mu       sync.Mutex
	gen      uint64
	versions map[string]uint64

	// Fault knobs (consumed once where named so).
	walCorruptOnce bool // flip one byte of the next non-empty WAL chunk
	walFailOnce    bool // 500 the next WAL request
	walFailAlways  bool // 500 every WAL request
	ignoreOffset   bool // serve every WAL request from byte 0

	srv *httptest.Server
}

func newFakePrimary(t *testing.T) *fakePrimary {
	t.Helper()
	fs, err := store.OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePrimary{t: t, fs: fs, gen: 1, versions: make(map[string]uint64)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replication/manifest", fp.handleManifest)
	mux.HandleFunc("GET /replication/snapshot/{name}", fp.handleSnapshot)
	mux.HandleFunc("GET /replication/wal/{name}", fp.handleWAL)
	fp.srv = httptest.NewServer(mux)
	t.Cleanup(fp.srv.Close)
	t.Cleanup(func() { fp.fs.Close() })
	return fp
}

func (fp *fakePrimary) setGen(g uint64) {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	fp.gen = g
}

func (fp *fakePrimary) createGraph(name string, version uint64) {
	fp.t.Helper()
	snap := &store.Snapshot{
		Meta:  store.Meta{Version: version, Source: "upload:edgelist"},
		Graph: graph.Build(4, [][2]uint32{{0, 1}, {1, 2}}),
	}
	if err := fp.fs.SaveSnapshot(name, snap); err != nil {
		fp.t.Fatal(err)
	}
	fp.mu.Lock()
	fp.versions[name] = version
	fp.mu.Unlock()
}

func (fp *fakePrimary) commitBatch(name string) uint64 {
	fp.t.Helper()
	fp.mu.Lock()
	v := fp.versions[name] + 1
	fp.versions[name] = v
	fp.mu.Unlock()
	b := store.Batch{Edits: []store.BatchOp{{Op: store.OpAdd, U: uint32(v), V: uint32(v + 1)}}, GrowTo: int(v) + 2}
	if _, err := fp.fs.AppendBatch(name, v, &b); err != nil {
		fp.t.Fatal(err)
	}
	return v
}

func (fp *fakePrimary) deleteGraph(name string) {
	fp.t.Helper()
	if err := fp.fs.Delete(name); err != nil {
		fp.t.Fatal(err)
	}
	fp.mu.Lock()
	delete(fp.versions, name)
	fp.mu.Unlock()
}

func (fp *fakePrimary) handleManifest(w http.ResponseWriter, r *http.Request) {
	fp.mu.Lock()
	man := Manifest{Generation: fp.gen, Role: RolePrimary}
	for name, v := range fp.versions {
		man.Graphs = append(man.Graphs, ManifestGraph{Name: name, Version: v, WALBytes: fp.fs.WALSize(name)})
	}
	fp.mu.Unlock()
	w.Header().Set(GenerationHeader, strconv.FormatUint(man.Generation, 10))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"generation":%d,"role":%q,"graphs":[`, man.Generation, man.Role)
	for i, g := range man.Graphs {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, `{"name":%q,"version":%d,"walBytes":%d}`, g.Name, g.Version, g.WALBytes)
	}
	fmt.Fprint(w, "]}")
}

func (fp *fakePrimary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	img, err := fp.fs.SnapshotImage(r.PathValue("name"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fp.mu.Lock()
	gen := fp.gen
	fp.mu.Unlock()
	w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))
	w.Write(img) // a failed write shows up as the puller's error
}

func (fp *fakePrimary) handleWAL(w http.ResponseWriter, r *http.Request) {
	fp.mu.Lock()
	if fp.walFailOnce || fp.walFailAlways {
		fp.walFailOnce = false
		fp.mu.Unlock()
		http.Error(w, "injected WAL failure", http.StatusInternalServerError)
		return
	}
	gen := fp.gen
	corrupt := fp.walCorruptOnce
	ignoreOffset := fp.ignoreOffset
	fp.mu.Unlock()

	offset, _ := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
	limit, _ := strconv.ParseInt(r.URL.Query().Get("limit"), 10, 64)
	if ignoreOffset {
		offset = 0
	}
	chunk, size, err := fp.fs.WALImage(r.PathValue("name"), offset, limit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if corrupt && len(chunk) > 0 {
		fp.mu.Lock()
		fp.walCorruptOnce = false
		fp.mu.Unlock()
		chunk = append([]byte(nil), chunk...)
		chunk[len(chunk)/2] ^= 0x40
	}
	w.Header().Set(GenerationHeader, strconv.FormatUint(gen, 10))
	w.Header().Set(WALSizeHeader, strconv.FormatInt(size, 10))
	w.Write(chunk) // a failed write shows up as the puller's error
}

// fakeApplier records every install/apply/drop in order.
type fakeApplier struct {
	mu     sync.Mutex
	graphs map[string]uint64
	log    []string // "snap:name@v", "batch:name@v", "drop:name"
}

func newFakeApplier() *fakeApplier {
	return &fakeApplier{graphs: make(map[string]uint64)}
}

func (a *fakeApplier) GraphVersion(name string) (uint64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.graphs[name]
	return v, ok
}

func (a *fakeApplier) GraphNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.graphs))
	for n := range a.graphs {
		names = append(names, n)
	}
	return names
}

func (a *fakeApplier) InstallSnapshot(name string, snap *store.Snapshot) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.graphs[name] = snap.Meta.Version
	a.log = append(a.log, fmt.Sprintf("snap:%s@%d", name, snap.Meta.Version))
	return nil
}

func (a *fakeApplier) ApplyBatch(name string, b *store.Batch, version uint64) (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur, ok := a.graphs[name]
	if !ok {
		return false, fmt.Errorf("fakeApplier: batch for missing graph %q", name)
	}
	if version <= cur {
		return false, nil
	}
	if version != cur+1 {
		return false, fmt.Errorf("fakeApplier: %q version gap: %d -> %d", name, cur, version)
	}
	a.graphs[name] = version
	a.log = append(a.log, fmt.Sprintf("batch:%s@%d", name, version))
	return true, nil
}

func (a *fakeApplier) DropGraph(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.graphs, name)
	a.log = append(a.log, "drop:"+name)
	return nil
}

// appliedOnce asserts every entry in the log is unique (no double
// install/apply of the same version).
func (a *fakeApplier) appliedOnce(t *testing.T) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := map[string]bool{}
	for _, e := range a.log {
		if strings.HasPrefix(e, "batch:") && seen[e] {
			t.Fatalf("batch applied twice: %s (log: %v)", e, a.log)
		}
		seen[e] = true
	}
}

func newTestPuller(fp *fakePrimary, a Applier, gen func() uint64, adopt func(uint64), clock sched.Clock) *Puller {
	if gen == nil {
		gen = func() uint64 { return 1 }
	}
	return NewPuller(Config{
		Primary:         fp.srv.URL,
		Applier:         a,
		Generation:      gen,
		AdoptGeneration: adopt,
		Clock:           clock,
		Client:          fp.srv.Client(),
	})
}

// TestPullerTornFramesAcrossChunks: a 7-byte chunk cap slices every
// frame across many HTTP responses; the incremental scanner must
// reassemble them and apply each committed batch exactly once.
func TestPullerTornFramesAcrossChunks(t *testing.T) {
	fp := newFakePrimary(t)
	fp.createGraph("g", 1)
	var want uint64
	for i := 0; i < 10; i++ {
		want = fp.commitBatch("g")
	}
	a := newFakeApplier()
	p := newTestPuller(fp, a, nil, nil, nil)
	p.cfg.ChunkBytes = 7
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	if v, _ := a.GraphVersion("g"); v != want {
		t.Fatalf("replica at version %d, want %d", v, want)
	}
	a.appliedOnce(t)
	st := p.Status()
	if st.BatchesApplied != 10 || st.SnapshotsInstalled != 1 {
		t.Fatalf("status: %d batches, %d snapshots; want 10, 1", st.BatchesApplied, st.SnapshotsInstalled)
	}
	if st.LagVersions != 0 || st.LagMs != 0 {
		t.Fatalf("caught-up replica reports lag %d versions / %.0fms", st.LagVersions, st.LagMs)
	}
}

// TestPullerMidStreamDisconnectResume: the source 500s one WAL request
// mid-pull; the next pull resumes from the same cursor and the batch
// sequence stays gap-free and exactly-once.
func TestPullerMidStreamDisconnectResume(t *testing.T) {
	fp := newFakePrimary(t)
	fp.createGraph("g", 1)
	for i := 0; i < 4; i++ {
		fp.commitBatch("g")
	}
	a := newFakeApplier()
	p := newTestPuller(fp, a, nil, nil, nil)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("initial pull: %v", err)
	}

	var want uint64
	for i := 0; i < 4; i++ {
		want = fp.commitBatch("g")
	}
	fp.mu.Lock()
	fp.walFailOnce = true
	fp.mu.Unlock()
	if err := p.PullOnce(context.Background()); err == nil {
		t.Fatal("pull against failing WAL endpoint succeeded")
	}
	if p.Status().LagVersions == 0 {
		t.Fatal("interrupted pull reports no lag")
	}
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("resume pull: %v", err)
	}
	if v, _ := a.GraphVersion("g"); v != want {
		t.Fatalf("replica at version %d, want %d", v, want)
	}
	a.appliedOnce(t)
}

// TestPullerCorruptFrameResyncs: a flipped byte in a shipped WAL chunk
// must never be applied — the puller detects it, falls back to a
// snapshot resync, re-tails the clean log, and converges with every
// batch applied exactly once.
func TestPullerCorruptFrameResyncs(t *testing.T) {
	fp := newFakePrimary(t)
	fp.createGraph("g", 1)
	for i := 0; i < 3; i++ {
		fp.commitBatch("g")
	}
	a := newFakeApplier()
	p := newTestPuller(fp, a, nil, nil, nil)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("initial pull: %v", err)
	}

	var want uint64
	for i := 0; i < 3; i++ {
		want = fp.commitBatch("g")
	}
	fp.mu.Lock()
	fp.walCorruptOnce = true
	fp.mu.Unlock()
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull over corrupt chunk: %v", err)
	}
	if v, _ := a.GraphVersion("g"); v != want {
		t.Fatalf("replica at version %d, want %d", v, want)
	}
	a.appliedOnce(t)
	if p.Status().DuplicatesSkipped == 0 {
		t.Fatal("resync re-tailed the log but skipped no duplicates — dedup path untested")
	}
}

// TestPullerRefusesOtherWALFormat: a primary whose log is of another
// format (here the format-1 fixture) is refused with an error naming the
// graph and the format, every pull, and nothing of it is applied; a
// resync would only fetch the same log again.
func TestPullerRefusesOtherWALFormat(t *testing.T) {
	fp := newFakePrimary(t)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("../store/testdata/walformat1")); err != nil {
		t.Fatal(err)
	}
	fs, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp.mu.Lock()
	fp.fs, fp.versions["g"] = fs, 5
	fp.mu.Unlock()
	a := newFakeApplier()
	p := newTestPuller(fp, a, nil, nil, nil)
	for range 2 {
		err := p.PullOnce(context.Background())
		if !errors.Is(err, store.ErrWALFormat) || !strings.Contains(err.Error(), `"g"`) || !strings.Contains(err.Error(), "format 1") {
			t.Fatalf("pull: %v, want ErrWALFormat naming \"g\" and format 1", err)
		}
	}
	if v, _ := a.GraphVersion("g"); v != 3 {
		t.Fatalf("replica at version %d, want the snapshot's 3", v)
	}
	if st := p.Status(); st.BatchesApplied != 0 || st.SnapshotsInstalled != 1 {
		t.Fatalf("status %+v, want one snapshot and no batch", st)
	}
}

// TestPullerDuplicateBatches: a source that ignores the offset and
// replays the full log on every request (duplicate batches on the
// wire) must still result in exactly-once application.
func TestPullerDuplicateBatches(t *testing.T) {
	fp := newFakePrimary(t)
	fp.createGraph("g", 1)
	var want uint64
	for i := 0; i < 5; i++ {
		want = fp.commitBatch("g")
	}
	fp.mu.Lock()
	fp.ignoreOffset = true
	fp.mu.Unlock()
	a := newFakeApplier()
	p := newTestPuller(fp, a, nil, nil, nil)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	if v, _ := a.GraphVersion("g"); v != want {
		t.Fatalf("replica at version %d, want %d", v, want)
	}
	a.appliedOnce(t)
}

// TestPullerFencesStaleSource: a deposed primary resurrects at its old
// generation; a replica that has moved on (generation 2) must reject
// the whole stream and apply nothing.
func TestPullerFencesStaleSource(t *testing.T) {
	fp := newFakePrimary(t)
	fp.createGraph("g", 1)
	fp.commitBatch("g")
	// fp.gen is 1: the resurrected pre-promotion primary.
	a := newFakeApplier()
	p := newTestPuller(fp, a, func() uint64 { return 2 }, nil, nil)
	err := p.PullOnce(context.Background())
	if !errors.Is(err, ErrStaleSource) {
		t.Fatalf("pull from stale source: err = %v, want ErrStaleSource", err)
	}
	if len(a.GraphNames()) != 0 {
		t.Fatalf("stale source state applied: %v", a.log)
	}
	st := p.Status()
	if st.StalePulls != 1 {
		t.Fatalf("StalePulls = %d, want 1", st.StalePulls)
	}

	// The source catching up to the cluster generation unfences it.
	fp.setGen(2)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull after source caught up: %v", err)
	}
	if v, _ := a.GraphVersion("g"); v != 2 {
		t.Fatalf("replica at version %d, want 2", v)
	}
}

// TestPullerAdoptsNewerGeneration: a surviving replica repointed at a
// freshly promoted primary (higher generation) adopts the new epoch.
func TestPullerAdoptsNewerGeneration(t *testing.T) {
	fp := newFakePrimary(t)
	fp.createGraph("g", 1)
	fp.setGen(3)
	var myGen uint64 = 1
	var mu sync.Mutex
	a := newFakeApplier()
	p := newTestPuller(fp, a,
		func() uint64 { mu.Lock(); defer mu.Unlock(); return myGen },
		func(g uint64) { mu.Lock(); defer mu.Unlock(); myGen = g },
		nil)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if myGen != 3 {
		t.Fatalf("node generation = %d after pulling a gen-3 source, want 3", myGen)
	}
}

// TestPullerDropsDeletedGraphs: graphs the primary deletes disappear
// from the manifest and must be dropped locally on the next pull.
func TestPullerDropsDeletedGraphs(t *testing.T) {
	fp := newFakePrimary(t)
	fp.createGraph("keep", 1)
	fp.createGraph("gone", 1)
	a := newFakeApplier()
	p := newTestPuller(fp, a, nil, nil, nil)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull: %v", err)
	}
	if len(a.GraphNames()) != 2 {
		t.Fatalf("replica has %v, want both graphs", a.GraphNames())
	}
	fp.deleteGraph("gone")
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull after delete: %v", err)
	}
	if _, ok := a.GraphVersion("gone"); ok {
		t.Fatal("deleted graph still present on replica")
	}
	if _, ok := a.GraphVersion("keep"); !ok {
		t.Fatal("surviving graph dropped")
	}
}

// TestPullerLagTracking: with the WAL endpoint failing, lag versions
// accumulate and LagMs grows on the injected fake clock; once the
// endpoint heals and the pull catches up, both return to zero.
func TestPullerLagTracking(t *testing.T) {
	clock := sched.NewFakeClock()
	fp := newFakePrimary(t)
	fp.createGraph("g", 1)
	a := newFakeApplier()
	p := newTestPuller(fp, a, nil, nil, clock)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("initial pull: %v", err)
	}

	fp.commitBatch("g")
	fp.commitBatch("g")
	fp.mu.Lock()
	fp.walFailAlways = true
	fp.mu.Unlock()
	if err := p.PullOnce(context.Background()); err == nil {
		t.Fatal("pull with failing WAL endpoint succeeded")
	}
	st := p.Status()
	if st.LagVersions != 2 {
		t.Fatalf("LagVersions = %d, want 2", st.LagVersions)
	}
	clock.Advance(5 * time.Second)
	if got := p.Status().LagMs; got != 5000 {
		t.Fatalf("LagMs = %.0f after 5s behind, want 5000", got)
	}

	fp.mu.Lock()
	fp.walFailAlways = false
	fp.mu.Unlock()
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("healed pull: %v", err)
	}
	st = p.Status()
	if st.LagVersions != 0 || st.LagMs != 0 {
		t.Fatalf("caught-up lag = %d versions / %.0fms, want 0/0", st.LagVersions, st.LagMs)
	}
}

// TestPullerSetPrimaryResetsCursors: repointing at a new primary resets
// WAL cursors; version dedup keeps application exactly-once even though
// the new source's log is re-read from zero.
func TestPullerSetPrimaryResetsCursors(t *testing.T) {
	fp1 := newFakePrimary(t)
	fp1.createGraph("g", 1)
	fp1.commitBatch("g")
	fp1.commitBatch("g")

	a := newFakeApplier()
	p := newTestPuller(fp1, a, nil, nil, nil)
	if err := p.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull from first primary: %v", err)
	}

	// Second primary: same lineage, one more batch (as a promoted
	// replica's store would hold).
	fp2 := newFakePrimary(t)
	fp2.createGraph("g", 1)
	fp2.commitBatch("g")
	fp2.commitBatch("g")
	want := fp2.commitBatch("g")
	fp2.setGen(2)

	var myGen uint64 = 1
	var mu sync.Mutex
	p2 := p // same puller, repointed
	p2.cfg.Generation = func() uint64 { mu.Lock(); defer mu.Unlock(); return myGen }
	p2.cfg.AdoptGeneration = func(g uint64) { mu.Lock(); defer mu.Unlock(); myGen = g }
	p2.SetPrimary(fp2.srv.URL)
	if err := p2.PullOnce(context.Background()); err != nil {
		t.Fatalf("pull from new primary: %v", err)
	}
	if v, _ := a.GraphVersion("g"); v != want {
		t.Fatalf("replica at version %d, want %d", v, want)
	}
	a.appliedOnce(t)
}
