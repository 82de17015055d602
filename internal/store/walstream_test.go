package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nucleus/internal/graph"
)

// makeShippableWAL builds a real WAL through the FS store — the same
// bytes a primary would serve to a replica — and returns the raw file
// image, the committed batches it carries, and the header generation.
func makeShippableWAL(t *testing.T, nBatches int) (wal []byte, want []CommittedBatch, gen uint64) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	gen = 7
	snap := &Snapshot{Meta: Meta{Version: gen}, Graph: graph.Build(4, [][2]uint32{{0, 1}})}
	if err := s.SaveSnapshot("g", snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nBatches; i++ {
		b := Batch{Edits: []BatchOp{{Op: OpAdd, U: uint32(i), V: uint32(i + 1)}}, GrowTo: i + 2}
		if _, err := s.BeginBatch("g", &b); err != nil {
			t.Fatal(err)
		}
		v := gen + uint64(i) + 1
		if _, err := s.CommitBatch("g", v); err != nil {
			t.Fatal(err)
		}
		want = append(want, CommittedBatch{Batch: b, Version: v})
	}
	wal, err = os.ReadFile(filepath.Join(dir, "graphs", "g", walFile))
	if err != nil {
		t.Fatal(err)
	}
	return wal, want, gen
}

func sameBatches(t *testing.T, got, want []CommittedBatch) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d batches, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Version != w.Version || g.GrowTo != w.GrowTo || len(g.Edits) != len(w.Edits) {
			t.Fatalf("batch %d: got {v%d grow%d %d edits} want {v%d grow%d %d edits}",
				i, g.Version, g.GrowTo, len(g.Edits), w.Version, w.GrowTo, len(w.Edits))
		}
		for j := range g.Edits {
			if g.Edits[j] != w.Edits[j] {
				t.Fatalf("batch %d edit %d: got %+v want %+v", i, j, g.Edits[j], w.Edits[j])
			}
		}
	}
}

// drainScanner collects every currently decodable batch.
func drainScanner(t *testing.T, sc *WALScanner) []CommittedBatch {
	t.Helper()
	var out []CommittedBatch
	for {
		cb, err := sc.Next()
		if err != nil {
			t.Fatalf("scanner error: %v", err)
		}
		if cb == nil {
			return out
		}
		out = append(out, *cb)
	}
}

// TestWALScannerMatchesFileReplay: scanning a complete WAL image, whole
// or byte-at-a-time, yields exactly the batches file replay does, plus
// the header generation.
func TestWALScannerMatchesFileReplay(t *testing.T) {
	wal, want, gen := makeShippableWAL(t, 5)
	fileGen, hasHeader, fileBatches, goodLen := decodeFrames(wal)
	if !hasHeader || fileGen != gen || goodLen != len(wal) {
		t.Fatalf("file replay: gen=%d hasHeader=%v goodLen=%d/%d", fileGen, hasHeader, goodLen, len(wal))
	}
	sameBatches(t, fileBatches, want)

	whole := NewWALScanner()
	whole.Feed(wal)
	sameBatches(t, drainScanner(t, whole), want)
	if g, ok := whole.Generation(); !ok || g != gen {
		t.Fatalf("whole-scan generation = %d,%v want %d", g, ok, gen)
	}

	chunked := NewWALScanner()
	var got []CommittedBatch
	for i := range wal {
		chunked.Feed(wal[i : i+1])
		got = append(got, drainScanner(t, chunked)...)
	}
	sameBatches(t, got, want)
	if g, ok := chunked.Generation(); !ok || g != gen {
		t.Fatalf("chunked-scan generation = %d,%v want %d", g, ok, gen)
	}
}

// TestWALScannerTornTailResumes: a chunk boundary mid-frame yields the
// complete prefix and (nil, nil); feeding the remainder resumes exactly
// where the stream stopped — the disconnect/reconnect path.
func TestWALScannerTornTailResumes(t *testing.T) {
	wal, want, _ := makeShippableWAL(t, 4)
	for cut := 1; cut < len(wal); cut++ {
		sc := NewWALScanner()
		sc.Feed(wal[:cut])
		head := drainScanner(t, sc)
		sc.Feed(wal[cut:])
		tail := drainScanner(t, sc)
		sameBatches(t, append(head, tail...), want)
	}
}

// TestWALScannerCorruptionIsSticky: a bit flip anywhere in a complete
// image surfaces as ErrCorruptFrame once the damaged frame is reached
// (never as wrong data), and the error is sticky across further feeds.
func TestWALScannerCorruptionIsSticky(t *testing.T) {
	wal, want, _ := makeShippableWAL(t, 3)
	for pos := 0; pos < len(wal); pos += 7 {
		corrupted := bytes.Clone(wal)
		corrupted[pos] ^= 0x40
		sc := NewWALScanner()
		sc.Feed(corrupted)
		var got []CommittedBatch
		var scanErr error
		for {
			cb, err := sc.Next()
			if err != nil {
				scanErr = err
				break
			}
			if cb == nil {
				break
			}
			got = append(got, *cb)
		}
		if scanErr == nil {
			// The flip may land in a frame whose damage only shortens the
			// stream (e.g. the final CRC): then the scanner must simply
			// not fabricate batches.
			if len(got) > len(want) {
				t.Fatalf("flip at %d: %d batches from corrupt image, want <= %d", pos, len(got), len(want))
			}
			continue
		}
		if !errors.Is(scanErr, ErrCorruptFrame) {
			t.Fatalf("flip at %d: err = %v, want ErrCorruptFrame", pos, scanErr)
		}
		for i := range got {
			sameBatches(t, got[i:i+1], want[i:i+1])
		}
		// Sticky: more bytes do not resurrect the stream.
		sc.Feed(wal)
		if _, err := sc.Next(); !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("flip at %d: error not sticky, got %v", pos, err)
		}
	}
}

// TestWALScannerDemandsHeader: a stream that does not begin with the
// header frame (offset drift) is corrupt, not silently applied.
func TestWALScannerDemandsHeader(t *testing.T) {
	wal, _, _ := makeShippableWAL(t, 2)
	header, st := scanOneFrame(wal)
	if st != frameOK || header.typ != frameHeader {
		t.Fatalf("first frame: status=%v typ=%d", st, header.typ)
	}
	sc := NewWALScanner()
	sc.Feed(wal[header.end:])
	if _, err := sc.Next(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("headerless stream: err = %v, want ErrCorruptFrame", err)
	}
}

// TestFileReplayMatchesScannerOnDamagedImages is the differential for the
// one frame parser the two decoders share: over seeded frame sequences
// (edits of varying size, aborted batches with no commit), cut at every
// byte offset and with one byte flipped at every offset, file replay
// returns exactly the committed batches the replication scanner yields
// before it stops, and truncates at the start of the first damaged frame.
func TestFileReplayMatchesScannerOnDamagedImages(t *testing.T) {
	scan := func(data []byte) []CommittedBatch {
		sc := NewWALScanner()
		sc.Feed(data)
		var out []CommittedBatch
		for {
			cb, err := sc.Next()
			if err != nil || cb == nil {
				return out
			}
			out = append(out, *cb)
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		image := encodeHeaderFrame(uint64(rng.Intn(1000)))
		starts := []int{0} // offset of every frame, then len(image)
		frame := func(f []byte) {
			starts = append(starts, len(image))
			image = append(image, f...)
		}
		version := uint64(rng.Intn(1000))
		for i, n := 0, 3+rng.Intn(4); i < n; i++ {
			b := Batch{GrowTo: rng.Intn(300)}
			for j, m := 0, rng.Intn(5); j < m; j++ {
				b.Edits = append(b.Edits, BatchOp{Op: OpAdd + byte(rng.Intn(2)), U: uint32(rng.Intn(1 << 20)), V: uint32(rng.Intn(200))})
			}
			frame(encodeBatchFrame(&b))
			if rng.Intn(4) > 0 { // one batch in four is aborted: no commit
				version++
				frame(encodeCommitFrame(version))
			}
		}
		starts = append(starts, len(image))
		// frameStart is the offset of the frame holding byte i (the last
		// boundary <= i).
		frameStart := func(i int) int {
			at := 0
			for _, s := range starts {
				if s <= i {
					at = s
				}
			}
			return at
		}
		intact := scan(image)
		check := func(what string, data []byte, wantGoodLen int) {
			t.Helper()
			_, hasHeader, fileBatches, goodLen := decodeFrames(data)
			if goodLen != wantGoodLen || hasHeader != (wantGoodLen > 0) {
				t.Fatalf("seed %d, %s: goodLen=%d hasHeader=%v, want %d", seed, what, goodLen, hasHeader, wantGoodLen)
			}
			sameBatches(t, fileBatches, scan(data))
			if len(fileBatches) > len(intact) {
				t.Fatalf("seed %d, %s: %d batches out of an image that held %d", seed, what, len(fileBatches), len(intact))
			}
			sameBatches(t, fileBatches, intact[:len(fileBatches)])
		}

		check("intact", image, len(image))
		for cut := 0; cut < len(image); cut++ {
			check(fmt.Sprintf("cut at %d", cut), image[:cut], frameStart(cut))
		}
		for i := range image {
			damaged := bytes.Clone(image)
			damaged[i] ^= byte(1 + rng.Intn(255))
			check(fmt.Sprintf("flip at %d", i), damaged, frameStart(i))
		}
	}
}

// TestFSReplicationSource: the FS store's raw images round-trip — the
// snapshot image decodes to the saved snapshot, and WAL chunks
// reassemble the exact file regardless of the chunk limit.
func TestFSReplicationSource(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	var src ReplicationSource = s

	if _, err := src.SnapshotImage("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SnapshotImage(missing) err = %v, want ErrNotFound", err)
	}

	snap := &Snapshot{
		Meta:  Meta{Version: 3, Source: "upload:edgelist", Mutations: 1, CreatedAt: time.Unix(1700000000, 0).UTC()},
		Graph: graph.Build(5, [][2]uint32{{0, 1}, {1, 2}, {2, 3}}),
		Kappa: []int32{1, 1, 1, 1, 0},
	}
	if err := s.SaveSnapshot("g", snap); err != nil {
		t.Fatal(err)
	}
	img, err := src.SnapshotImage("g")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatalf("decoding shipped snapshot image: %v", err)
	}
	if dec.Meta.Version != snap.Meta.Version || dec.Meta.Source != snap.Meta.Source ||
		dec.Meta.Mutations != snap.Meta.Mutations || !dec.Meta.CreatedAt.Equal(snap.Meta.CreatedAt) ||
		len(dec.Kappa) != len(snap.Kappa) {
		t.Fatalf("shipped snapshot meta %+v, want %+v", dec.Meta, snap.Meta)
	}

	for i := 0; i < 6; i++ {
		b := Batch{Edits: []BatchOp{{Op: OpAdd, U: 0, V: uint32(i)}}}
		if _, err := s.BeginBatch("g", &b); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommitBatch("g", uint64(4+i)); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := os.ReadFile(filepath.Join(dir, "graphs", "g", walFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{0, 1, 7, 1 << 20} {
		var got []byte
		var offset int64
		for {
			chunk, size, err := src.WALImage("g", offset, limit)
			if err != nil {
				t.Fatal(err)
			}
			if size != int64(len(whole)) {
				t.Fatalf("WALImage size = %d, want %d", size, len(whole))
			}
			if len(chunk) == 0 {
				break
			}
			got = append(got, chunk...)
			offset += int64(len(chunk))
		}
		if !bytes.Equal(got, whole) {
			t.Fatalf("limit %d: reassembled WAL differs (%d vs %d bytes)", limit, len(got), len(whole))
		}
	}

	// Past-the-end offsets (a replica ahead of a compacted log) return
	// no data plus the authoritative size.
	if chunk, size, err := src.WALImage("g", int64(len(whole))+100, 0); err != nil || len(chunk) != 0 || size != int64(len(whole)) {
		t.Fatalf("past-end WALImage = %d bytes, size %d, err %v", len(chunk), size, err)
	}

	// Compaction resets the log: the size drops below any old offset.
	if err := s.SaveSnapshot("g", &Snapshot{Meta: Meta{Version: 20}, Graph: snap.Graph}); err != nil {
		t.Fatal(err)
	}
	if _, size, err := src.WALImage("g", 0, 0); err != nil || size != 0 {
		t.Fatalf("post-compaction WAL size = %d, err %v, want 0", size, err)
	}
}

// FuzzWALScanner cross-checks the incremental scanner against the file
// replay decoder on arbitrary byte images and chunkings: identical
// committed batches (up to the first corruption) and identical header
// generations, with no panics.
func FuzzWALScanner(f *testing.F) {
	wal, _, _ := makeShippableWALForFuzz(f)
	f.Add(wal, 1)
	f.Add(wal, 3)
	f.Add(wal[:len(wal)-2], 5)
	f.Add([]byte{}, 1)
	f.Add([]byte{frameHeader, 0, 0, 0, 0, 0}, 2)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		_, _, fileBatches, _ := decodeFrames(data)

		scan := func(feedChunk int) ([]CommittedBatch, bool) {
			sc := NewWALScanner()
			var out []CommittedBatch
			for off := 0; off < len(data); off += feedChunk {
				end := off + feedChunk
				if end > len(data) {
					end = len(data)
				}
				sc.Feed(data[off:end])
				for {
					cb, err := sc.Next()
					if err != nil {
						return out, true
					}
					if cb == nil {
						break
					}
					out = append(out, *cb)
				}
			}
			return out, false
		}
		whole, wholeCorrupt := scan(len(data) + 1)
		chunked, chunkedCorrupt := scan(chunk)
		if wholeCorrupt != chunkedCorrupt || len(whole) != len(chunked) {
			t.Fatalf("chunking changed the scan: whole=%d/%v chunked=%d/%v",
				len(whole), wholeCorrupt, len(chunked), chunkedCorrupt)
		}
		// The scanner must never yield more than file replay accepts, and
		// what it yields must match frame for frame.
		if len(whole) > len(fileBatches) {
			t.Fatalf("scanner yielded %d batches, file replay only %d", len(whole), len(fileBatches))
		}
		for i := range whole {
			a, b := whole[i], fileBatches[i]
			if a.Version != b.Version || a.GrowTo != b.GrowTo || len(a.Edits) != len(b.Edits) {
				t.Fatalf("batch %d diverges: scanner %+v file %+v", i, a, b)
			}
			for j := range a.Edits {
				if a.Edits[j] != b.Edits[j] {
					t.Fatalf("batch %d edit %d diverges", i, j)
				}
			}
		}
	})
}

// makeShippableWALForFuzz is makeShippableWAL for a *testing.F seed
// corpus (no *testing.T available).
func makeShippableWALForFuzz(f *testing.F) (wal []byte, want []CommittedBatch, gen uint64) {
	f.Helper()
	dir := f.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := s.Close(); err != nil {
			f.Errorf("close: %v", err)
		}
	})
	gen = 2
	if err := s.SaveSnapshot("g", &Snapshot{Meta: Meta{Version: gen}, Graph: graph.Build(3, [][2]uint32{{0, 1}})}); err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b := Batch{Edits: []BatchOp{{Op: OpAdd, U: uint32(i), V: uint32(i + 1)}}}
		if _, err := s.BeginBatch("g", &b); err != nil {
			f.Fatal(err)
		}
		v := gen + uint64(i) + 1
		if _, err := s.CommitBatch("g", v); err != nil {
			f.Fatal(err)
		}
		want = append(want, CommittedBatch{Batch: b, Version: v})
	}
	wal, err = os.ReadFile(filepath.Join(dir, "graphs", "g", walFile))
	if err != nil {
		f.Fatal(err)
	}
	return wal, want, gen
}
