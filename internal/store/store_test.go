package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"nucleus/internal/graph"
)

// sameGraph asserts bit-exact equality of the CSR representation: vertex
// count, edge count, every adjacency row, every edge-id row, and the edge
// endpoint tables.
func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape: got (%d,%d), want (%d,%d)", got.N(), got.M(), want.N(), want.M())
	}
	for u := 0; u < want.N(); u++ {
		gn, wn := got.Neighbors(uint32(u)), want.Neighbors(uint32(u))
		if len(gn) != len(wn) {
			t.Fatalf("vertex %d: degree %d, want %d", u, len(gn), len(wn))
		}
		ge, we := got.EdgeIDs(uint32(u)), want.EdgeIDs(uint32(u))
		for i := range wn {
			if gn[i] != wn[i] {
				t.Fatalf("vertex %d neighbor %d: %d, want %d", u, i, gn[i], wn[i])
			}
			if ge[i] != we[i] {
				t.Fatalf("vertex %d edge id %d: %d, want %d", u, i, ge[i], we[i])
			}
		}
	}
	for e := int64(0); e < want.M(); e++ {
		gu, gv := got.Edge(e)
		wu, wv := want.Edge(e)
		if gu != wu || gv != wv {
			t.Fatalf("edge %d: {%d,%d}, want {%d,%d}", e, gu, gv, wu, wv)
		}
	}
}

func roundTrip(t *testing.T, snap *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestSnapshotRoundTripProperty is the crash-recovery property test:
// encode→decode must reproduce arbitrary graphs bit-exactly (CSR rows,
// edge-id assignment, metadata, κ array) across generator families, sizes
// and degenerate shapes.
func TestSnapshotRoundTripProperty(t *testing.T) {
	gens := []struct {
		name string
		mk   func(seed int64) *graph.Graph
	}{
		{"empty", func(int64) *graph.Graph { return graph.Build(0, nil) }},
		{"isolated", func(int64) *graph.Graph { return graph.Build(17, nil) }},
		{"singleEdge", func(int64) *graph.Graph { return graph.Build(-1, [][2]uint32{{0, 1}}) }},
		{"trailingIsolated", func(int64) *graph.Graph { return graph.Build(9, [][2]uint32{{3, 4}}) }},
		{"complete", func(int64) *graph.Graph { return graph.Complete(13) }},
		{"gnm", func(seed int64) *graph.Graph { return graph.GnM(200, 700, seed) }},
		{"plc", func(seed int64) *graph.Graph { return graph.PowerLawCluster(300, 4, 0.5, seed) }},
		{"rmat", func(seed int64) *graph.Graph { return graph.RMAT(9, 6, 0.45, 0.22, 0.22, seed) }},
	}
	for _, gen := range gens {
		t.Run(gen.name, func(t *testing.T) {
			for seed := int64(0); seed < 5; seed++ {
				g := gen.mk(seed)
				rng := rand.New(rand.NewSource(seed * 31))
				var kappa []int32
				if seed%2 == 1 { // alternate the optional κ section
					kappa = make([]int32, g.N())
					for v := range kappa {
						kappa[v] = int32(rng.Intn(50))
					}
				}
				snap := &Snapshot{
					Meta: Meta{
						Version:   uint64(rng.Int63()),
						Source:    "upload:edgelist",
						CreatedAt: time.Unix(0, rng.Int63()),
						Mutations: rng.Intn(100),
					},
					Graph: g,
					Kappa: kappa,
				}
				got := roundTrip(t, snap)
				if got.Meta != snap.Meta {
					t.Fatalf("seed %d: meta %+v, want %+v", seed, got.Meta, snap.Meta)
				}
				sameGraph(t, got.Graph, g)
				if (got.Kappa == nil) != (kappa == nil) {
					t.Fatalf("seed %d: kappa presence %v, want %v", seed, got.Kappa != nil, kappa != nil)
				}
				for v := range kappa {
					if got.Kappa[v] != kappa[v] {
						t.Fatalf("seed %d: κ(%d) = %d, want %d", seed, v, got.Kappa[v], kappa[v])
					}
				}
			}
		})
	}
}

// TestSnapshotChecksumDetectsCorruption flips every byte of a small
// snapshot in turn; decode must reject all of them (and truncations too).
func TestSnapshotChecksumDetectsCorruption(t *testing.T) {
	snap := &Snapshot{
		Meta:  Meta{Version: 7, Source: "generator:gnm", CreatedAt: time.Unix(0, 12345)},
		Graph: graph.GnM(40, 90, 1),
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
	for cut := 1; cut < len(data); cut += 7 {
		if _, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// FuzzDecodeSnapshot feeds the snapshot decoder arbitrary images — what a
// replica receives from GET /replication/snapshot and what recovery reads
// from disk. Each input is tried as is and with its last four bytes
// replaced by the checksum of the rest, so mutations reach the parser
// behind the CRC. The decoder must return an error or a snapshot that
// encodes and decodes again to the same graph, metadata and κ; it must
// never panic.
func FuzzDecodeSnapshot(f *testing.F) {
	for i, g := range []*graph.Graph{graph.Figure2(), graph.TrussToy(), graph.Nucleus34Toy(), graph.LevelsToy(), graph.Build(0, nil)} {
		snap := &Snapshot{Meta: Meta{Version: uint64(i + 1), Source: "fixture", CreatedAt: time.Unix(0, 42), Mutations: i}, Graph: g}
		if i%2 == 1 {
			snap.Kappa = make([]int32, g.N())
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		images := [][]byte{data}
		if len(data) >= 4 {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(sealed[len(sealed)-4:], crc32.Checksum(sealed[:len(sealed)-4], castagnoli))
			images = append(images, sealed)
		}
		for _, img := range images {
			snap, err := DecodeSnapshot(img)
			if err != nil {
				continue
			}
			again := roundTrip(t, snap)
			if again.Meta != snap.Meta {
				t.Fatalf("meta %+v re-encodes to %+v", snap.Meta, again.Meta)
			}
			sameGraph(t, again.Graph, snap.Graph)
			if !slices.Equal(again.Kappa, snap.Kappa) || (again.Kappa == nil) != (snap.Kappa == nil) {
				t.Fatalf("κ %v re-encodes to %v", snap.Kappa, again.Kappa)
			}
		}
	})
}

// TestFSWALCommitReplay exercises the one-frame log end to end: appended
// batches replay in order at their versions, and a torn tail is truncated
// so later appends still work.
func TestFSWALCommitReplay(t *testing.T) {
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Meta: Meta{Version: 1, Source: "upload:edgelist"}, Graph: graph.Build(4, [][2]uint32{{0, 1}})}
	if err := s.SaveSnapshot("g", snap); err != nil {
		t.Fatal(err)
	}

	b1 := &Batch{Edits: []BatchOp{{OpAdd, 1, 2}, {OpAdd, 2, 3}}, GrowTo: 6}
	if _, err := s.AppendBatch("g", 2, b1); err != nil {
		t.Fatal(err)
	}
	b2 := &Batch{Edits: []BatchOp{{OpRemove, 0, 1}}}
	if _, err := s.AppendBatch("g", 3, b2); err != nil {
		t.Fatal(err)
	}

	_, batches, err := s.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("batches: %d, want 2", len(batches))
	}
	if batches[0].Version != 2 || batches[1].Version != 3 {
		t.Fatalf("versions: %d, %d", batches[0].Version, batches[1].Version)
	}
	if batches[0].GrowTo != 6 || len(batches[0].Edits) != 2 || batches[0].Edits[1] != (BatchOp{OpAdd, 2, 3}) {
		t.Fatalf("batch 1 payload: %+v", batches[0])
	}
	if len(batches[1].Edits) != 1 || batches[1].Edits[0] != (BatchOp{OpRemove, 0, 1}) {
		t.Fatalf("batch 2 payload: %+v", batches[1])
	}

	// Torn tail: garbage after the intact frames must be truncated on load,
	// and appends afterwards must still replay.
	walPath := filepath.Join(s.root, "graphs", "g", walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{frameBatch, 0xFF, 0x13, 0x37}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, batches, err = s.Load("g"); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("after torn tail: %d batches, want 2", len(batches))
	}
	if _, err := s.AppendBatch("g", 9, b1); err != nil {
		t.Fatal(err)
	}
	if _, batches, err = s.Load("g"); err != nil {
		t.Fatal(err)
	}
	if len(batches) != 3 || batches[2].Version != 9 {
		t.Fatalf("append after truncation: %+v", batches)
	}

	// Compaction contract: a fresh snapshot folds the log away.
	if err := s.SaveSnapshot("g", snap); err != nil {
		t.Fatal(err)
	}
	if sz := s.WALSize("g"); sz != 0 {
		t.Fatalf("WAL size after snapshot: %d, want 0", sz)
	}
	if _, batches, err = s.Load("g"); err != nil || len(batches) != 0 {
		t.Fatalf("batches after snapshot: %v, %v", batches, err)
	}
}

// TestFSStaleWALDiscardedOnSnapshotMismatch simulates the crash window
// inside SaveSnapshot: the replacement snapshot became durable (rename)
// but the previous lineage's WAL was never removed. Replay must discard
// the stranded log — its batches belong to the old graph — instead of
// applying them to the new snapshot.
func TestFSStaleWALDiscardedOnSnapshotMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldSnap := &Snapshot{Meta: Meta{Version: 1}, Graph: graph.Build(4, [][2]uint32{{0, 1}})}
	if err := s.SaveSnapshot("g", oldSnap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBatch("g", 2, &Batch{Edits: []BatchOp{{OpAdd, 1, 2}}}); err != nil {
		t.Fatal(err)
	}

	// Crash-replace: write the new snapshot file directly, bypassing
	// SaveSnapshot's WAL truncation (as if the process died in between).
	newGraph := graph.Build(3, [][2]uint32{{0, 2}})
	f, err := os.Create(filepath.Join(dir, "graphs", "g", snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(f, &Snapshot{Meta: Meta{Version: 5}, Graph: newGraph}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(dir) // fresh process
	if err != nil {
		t.Fatal(err)
	}
	snap, batches, err := s2.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Version != 5 {
		t.Fatalf("recovered version %d, want 5", snap.Meta.Version)
	}
	if len(batches) != 0 {
		t.Fatalf("stale-generation WAL replayed %d batches onto the new snapshot", len(batches))
	}
	if sz := s2.WALSize("g"); sz != 0 {
		t.Fatalf("stale WAL not discarded: %d bytes", sz)
	}
	// Appends against the new snapshot start a fresh, correctly stamped log.
	if _, err := s2.AppendBatch("g", 6, &Batch{Edits: []BatchOp{{OpAdd, 0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, batches, err = s2.Load("g"); err != nil || len(batches) != 1 || batches[0].Version != 6 {
		t.Fatalf("fresh log after discard: %v, %v", batches, err)
	}
}

// TestFSNameCaseSensitivity: "A" and "a" must land in distinct directories
// even on case-insensitive filesystems, so uppercase is escaped.
func TestFSNameCaseSensitivity(t *testing.T) {
	if encodeName("Data") == encodeName("data") {
		t.Fatal("case-folded names collide")
	}
	if strings.ContainsAny(encodeName("Data"), "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t.Fatalf("uppercase leaked into directory name %q", encodeName("Data"))
	}
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("A", &Snapshot{Meta: Meta{Version: 1}, Graph: graph.Build(1, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("a", &Snapshot{Meta: Meta{Version: 2}, Graph: graph.Build(2, nil)}); err != nil {
		t.Fatal(err)
	}
	upper, _, err := s.Load("A")
	if err != nil {
		t.Fatal(err)
	}
	lower, _, err := s.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if upper.Meta.Version != 1 || lower.Meta.Version != 2 || upper.Graph.N() != 1 || lower.Graph.N() != 2 {
		t.Fatalf("case collision: A=%+v a=%+v", upper.Meta, lower.Meta)
	}
}

// TestFSNamesAndListing: hostile and unicode graph names must round-trip
// through the directory encoding without collisions or traversal.
func TestFSNamesAndListing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"plain", "..", ".", "a b", "a/b", "ü-graph", "", "%41", "A%41"}
	for i, name := range names {
		snap := &Snapshot{Meta: Meta{Version: uint64(i + 1)}, Graph: graph.Build(1, nil)}
		if err := s.SaveSnapshot(name, snap); err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
	}
	got, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	want := append([]string(nil), names...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("list: %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list: %q, want %q", got, want)
		}
	}
	// Every directory must live directly under graphs/ (no traversal).
	entries, err := os.ReadDir(filepath.Join(dir, "graphs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("graph dirs: %d, want %d", len(entries), len(names))
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), "/") || e.Name() == "." || e.Name() == ".." {
			t.Fatalf("unsafe directory name %q", e.Name())
		}
	}

	if err := s.Delete(".."); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Load(".."); err != ErrNotFound {
		t.Fatalf("load after delete: %v, want ErrNotFound", err)
	}
	if _, _, err := s.Load("never-saved"); err != ErrNotFound {
		t.Fatalf("load of unknown name: %v, want ErrNotFound", err)
	}
}

// TestFSSnapshotReplaceIsAtomic: a failed in-progress save (simulated by
// the temp-file protocol) must never clobber the previous snapshot, and a
// reopened store sees the latest state.
func TestFSSnapshotReplaceAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	g1 := graph.GnM(30, 60, 1)
	if err := s.SaveSnapshot("g", &Snapshot{Meta: Meta{Version: 1}, Graph: g1}); err != nil {
		t.Fatal(err)
	}
	kappa := make([]int32, 50)
	for i := range kappa {
		kappa[i] = int32(i % 5)
	}
	g2 := graph.GnM(50, 120, 2)
	if err := s.SaveSnapshot("g", &Snapshot{Meta: Meta{Version: 4, Mutations: 3}, Graph: g2, Kappa: kappa}); err != nil {
		t.Fatal(err)
	}

	// Reopen: a fresh store instance over the same directory.
	s2, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap, batches, err := s2.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 0 || snap.Meta.Version != 4 || snap.Meta.Mutations != 3 {
		t.Fatalf("reopened: %+v, %d batches", snap.Meta, len(batches))
	}
	sameGraph(t, snap.Graph, g2)
	if len(snap.Kappa) != 50 || snap.Kappa[7] != 2 {
		t.Fatalf("kappa: %v", snap.Kappa)
	}
	// No leftover temp files from the atomic-replace protocol.
	entries, err := os.ReadDir(filepath.Join(dir, "graphs", "g"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %q", e.Name())
		}
	}
}

// TestNullStore: the default backend accepts everything and retains
// nothing.
func TestNullStore(t *testing.T) {
	s := Null()
	if s.Durable() {
		t.Fatal("null store claims durability")
	}
	if err := s.SaveSnapshot("g", &Snapshot{Graph: graph.Build(1, nil)}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.AppendBatch("g", 2, &Batch{}); n != 0 || err != nil {
		t.Fatalf("AppendBatch: %d, %v", n, err)
	}
	if _, _, err := s.Load("g"); err != ErrNotFound {
		t.Fatalf("Load: %v, want ErrNotFound", err)
	}
	if names, err := s.List(); err != nil || len(names) != 0 {
		t.Fatalf("List: %v, %v", names, err)
	}
}

// oldFormatDir is a data directory written by the format-1 encoder, whose
// log held two frames per batch: graph "g", a snapshot at version 3 and
// two batches, published at versions 4 and 5.
const oldFormatDir = "testdata/walformat1"

// TestLoadRefusesOldFormatWAL: a log whose header is intact but names
// another format is refused by Load and by a replica's scan, with an
// error naming the file and the format, and is left byte for byte as it
// was: reading it as torn or stale would drop acknowledged batches.
func TestLoadRefusesOldFormatWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(oldFormatDir)); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "graphs", "g", walFile)
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		_, batches, err := s.Load("g")
		if !errors.Is(err, ErrWALFormat) || !strings.Contains(err.Error(), walPath) || !strings.Contains(err.Error(), "format 1") {
			t.Fatalf("Load: %d batches, err %v; want ErrWALFormat naming %s and format 1", len(batches), err, walPath)
		}
	}
	if after, err := os.ReadFile(walPath); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused log changed: %d bytes (err %v), was %d", len(after), err, len(before))
	}

	sc := NewWALScanner()
	sc.Feed(before)
	if cb, err := sc.Next(); cb != nil || !errors.Is(err, ErrWALFormat) {
		t.Fatalf("replica scan: %v, %v; want ErrWALFormat", cb, err)
	}
}

// format2Dir is a data directory written by the format-2 encoder (one
// frame per batch, no core numbers): graph "g", a snapshot at version 3
// with its κ, and two batches published at versions 4 and 5 that move κ,
// the second with a growTo and a self-loop.
const format2Dir = "testdata/walformat2"

// TestLoadReadsFormat2WAL: a format-2 log is read, its batches marked as
// carrying no core numbers, and appending to it keeps it format 2 — a
// batch with its list is logged without it — so the log never holds a
// frame its header does not name.
func TestLoadReadsFormat2WAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	if err := os.CopyFS(dir, os.DirFS(format2Dir)); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []CommittedBatch{
		{Version: 4, Batch: Batch{Edits: []BatchOp{{OpAdd, 4, 3}, {OpAdd, 5, 1}}}},
		{Version: 5, Batch: Batch{GrowTo: 8, Edits: []BatchOp{{OpRemove, 0, 1}, {OpAdd, 6, 7}, {OpAdd, 5, 2}, {OpAdd, 0, 0}}}},
	}
	snap, batches, err := s.Load("g")
	if err != nil || snap.Meta.Version != 3 || snap.Kappa == nil {
		t.Fatalf("Load: %+v, %v", snap, err)
	}
	sameBatches(t, batches, want)

	next := CommittedBatch{Version: 6, Batch: Batch{Edits: []BatchOp{{OpAdd, 6, 0}}, Cores: []CoreChange{{6, 2}}, HasCores: true}}
	if _, err := s.AppendBatch("g", next.Version, &next.Batch); err != nil {
		t.Fatal(err)
	}
	next.Cores, next.HasCores = nil, false
	_, batches, err = s.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, batches, append(want, next))
	wal, err := os.ReadFile(filepath.Join(dir, "graphs", "g", walFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, format, _, _, _, _ := decodeFrames(wal); format != 2 {
		t.Fatalf("appended-to log reads as format %d, want 2", format)
	}
}

// TestAppendKeepsRemovedDirGone: once a live log's directory is removed
// (snapshot and all), the next append fails rather than log a batch no
// restart could recover; the directory stays absent and WALSize is
// unchanged.
func TestAppendKeepsRemovedDirGone(t *testing.T) {
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("g", faultSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	b := &Batch{Edits: []BatchOp{{OpAdd, 0, 1}}}
	if _, err := s.AppendBatch("g", 2, b); err != nil {
		t.Fatal(err)
	}
	size := s.WALSize("g")
	gdir := filepath.Join(s.root, "graphs", "g")
	if err := os.RemoveAll(gdir); err != nil {
		t.Fatal(err)
	}
	if n, err := s.AppendBatch("g", 3, b); err == nil || n != 0 {
		t.Fatalf("append under a removed directory: %d, %v; want an error", n, err)
	}
	if _, err := os.Stat(gdir); !os.IsNotExist(err) {
		t.Fatalf("directory after the failed append: %v, want it absent", err)
	}
	if got := s.WALSize("g"); got != size {
		t.Fatalf("WALSize %d after the failed append, want %d", got, size)
	}
}

// TestAppendRefusesUnorderedCores: a core-number list the cores frame
// cannot write (not strictly ascending by vertex) is refused before
// anything is written.
func TestAppendRefusesUnorderedCores(t *testing.T) {
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("g", faultSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	for _, cores := range [][]CoreChange{{{2, 1}, {1, 1}}, {{1, 1}, {1, 2}}} {
		if _, err := s.AppendBatch("g", 2, &Batch{Cores: cores, HasCores: true}); err == nil || s.WALSize("g") != 0 {
			t.Fatalf("cores %v: %v, WALSize %d; want a refusal and no log", cores, err, s.WALSize("g"))
		}
	}
}

// TestFailedAppendLeavesNoTrace: an append whose write lands half its
// frame and then fails is cut off again, so a reopened store replays
// exactly the batches before it and the log has its old length.
func TestFailedAppendLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("g", faultSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	b := &Batch{Edits: []BatchOp{{OpAdd, 0, 1}, {OpRemove, 2, 3}}}
	if _, err := s.AppendBatch("g", 2, b); err != nil {
		t.Fatal(err)
	}
	size := s.WALSize("g")
	ff := injectFaults(s, 2) // open, then the write
	if _, err := s.AppendBatch("g", 3, b); err == nil || ff.calls[1] != "write" {
		t.Fatalf("append with a failed write: %v after %v", err, ff.calls)
	}
	reopened, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, batches, err := reopened.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, batches, []CommittedBatch{{Batch: *b, Version: 2}})
	if st, err := os.Stat(filepath.Join(dir, "graphs", "g", walFile)); err != nil || st.Size() != size {
		t.Fatalf("log after the failed append: %v (err %v), want %d bytes", st, err, size)
	}
}

// TestBeginCommitShimWritesOneFrame: BeginBatch writes nothing and
// CommitBatch appends the staged batch as one frame, as AppendBatch does.
func TestBeginCommitShimWritesOneFrame(t *testing.T) {
	s, err := OpenFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot("g", faultSnapshot(1)); err != nil {
		t.Fatal(err)
	}
	b := &Batch{Edits: []BatchOp{{OpAdd, 0, 1}}}
	if n, err := s.BeginBatch("g", b); n != 0 || err != nil || s.WALSize("g") != 0 {
		t.Fatalf("BeginBatch: %d, %v; WALSize %d", n, err, s.WALSize("g"))
	}
	n, err := s.CommitBatch("g", 2)
	if err != nil || int64(n) != s.WALSize("g") || n != len(encodeHeaderFrame(1))+len(encodeBatchFrame(2, b, true)) {
		t.Fatalf("CommitBatch: %d, %v; WALSize %d", n, err, s.WALSize("g"))
	}
	_, batches, err := s.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	sameBatches(t, batches, []CommittedBatch{{Batch: *b, Version: 2}})
}
