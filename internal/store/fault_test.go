package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"nucleus/internal/graph"
)

// faultStep is one Store call of a fault script.
type faultStep struct {
	op    string // "save", "append" or "delete"
	ver   uint64 // the snapshot's or the batch's version
	batch *Batch // append
}

// faultScript draws a seeded sequence of the calls the serving layer
// makes: snapshots (uploads and compactions), batch appends and deletes.
func faultScript(rng *rand.Rand, n int) []faultStep {
	var steps []faultStep
	ver, exists := uint64(0), false
	for len(steps) < n {
		ver++
		r := rng.Intn(10)
		switch {
		case !exists || r == 8:
			steps = append(steps, faultStep{op: "save", ver: ver})
			exists = true
		case r == 9:
			steps = append(steps, faultStep{op: "delete"})
			exists = false
		default:
			b := &Batch{GrowTo: rng.Intn(3) * 20}
			for i := rng.Intn(4); i >= 0; i-- {
				b.Edits = append(b.Edits, BatchOp{Op: byte(rng.Intn(2)), U: uint32(rng.Intn(16)), V: uint32(rng.Intn(16))})
			}
			steps = append(steps, faultStep{op: "append", ver: ver, batch: b})
		}
	}
	return steps
}

// faultModel is the acknowledged state of one name: the snapshot (nil
// when there is none) and the batches appended since, in order.
type faultModel struct {
	snap    *Snapshot
	batches []CommittedBatch
}

func faultSnapshot(ver uint64) *Snapshot {
	return &Snapshot{Meta: Meta{Version: ver, Source: "fault"}, Graph: graph.GnM(16, 30, int64(ver))}
}

// do makes the step's call on s.
func (st faultStep) do(s *FS) error {
	var err error
	switch st.op {
	case "save":
		err = s.SaveSnapshot("g", faultSnapshot(st.ver))
	case "append":
		_, err = s.AppendBatch("g", st.ver, st.batch)
	case "delete":
		err = s.Delete("g")
	}
	return err
}

// ack records the step as acknowledged.
func (m *faultModel) ack(st faultStep) {
	switch st.op {
	case "save":
		m.snap, m.batches = faultSnapshot(st.ver), nil
	case "append":
		m.batches = append(m.batches, CommittedBatch{Batch: *st.batch, Version: st.ver})
	case "delete":
		*m = faultModel{}
	}
}

// faultReplica is a replica's view of the name: the snapshot generation
// it holds and the WAL bytes it has pulled so far.
type faultReplica struct {
	gen    uint64
	pulled []byte
}

// pull brings r up to date the way a replica does — the WAL from its
// offset, or everything again after a compaction reset or a new
// snapshot — and returns the committed batches it now holds.
func (r *faultReplica) pull(t *testing.T, s *FS) []CommittedBatch {
	t.Helper()
	img, err := s.SnapshotImage("g")
	if err != nil {
		t.Fatalf("replica pull: snapshot image: %v", err)
	}
	snap, err := DecodeSnapshot(img)
	if err != nil {
		t.Fatalf("replica pull: decoding the snapshot image: %v", err)
	}
	if snap.Meta.Version != r.gen {
		r.gen, r.pulled = snap.Meta.Version, nil
	}
	tail, size, err := s.WALImage("g", int64(len(r.pulled)), 0)
	if err != nil {
		t.Fatalf("replica pull: WAL image: %v", err)
	}
	if size < int64(len(r.pulled)) {
		r.pulled = nil
		if tail, _, err = s.WALImage("g", 0, 0); err != nil {
			t.Fatalf("replica pull: WAL image: %v", err)
		}
	}
	r.pulled = append(r.pulled, tail...)
	sc := NewWALScanner()
	sc.Feed(r.pulled)
	batches := drainScanner(t, sc)
	if gen, ok := sc.Generation(); len(batches) > 0 && (!ok || gen != r.gen) {
		t.Fatalf("replica pull: WAL generation %d (header %v), snapshot %d", gen, ok, r.gen)
	}
	return batches
}

// loadCopy is Load on a copy of root, so the check leaves the files it
// reads (a torn tail, a stale log) for the next step to trip over.
func loadCopy(t *testing.T, root string) (*Snapshot, []CommittedBatch, error) {
	t.Helper()
	cp := filepath.Join(t.TempDir(), "copy")
	if err := os.CopyFS(cp, os.DirFS(root)); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFS(cp)
	if err != nil {
		t.Fatal(err)
	}
	return s.Load("g")
}

// checkAgree requires Load, the WAL image, WALSize, the file's length
// (when the last call was an append, successful or not) and a replica's
// pull all to hold the model's state.
func checkAgree(t *testing.T, s *FS, m *faultModel, r *faultReplica, appended bool) {
	t.Helper()
	snap, batches, err := loadCopy(t, s.root)
	if m.snap == nil {
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("Load: %v, want ErrNotFound", err)
		}
		if sz := s.WALSize("g"); sz != 0 {
			t.Fatalf("WALSize %d with no snapshot", sz)
		}
		return
	}
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if snap.Meta.Version != m.snap.Meta.Version {
		t.Fatalf("Load: snapshot version %d, want %d", snap.Meta.Version, m.snap.Meta.Version)
	}
	sameGraph(t, snap.Graph, m.snap.Graph)
	sameBatches(t, batches, m.batches)

	size := s.WALSize("g")
	img, imgSize, err := s.WALImage("g", 0, 0)
	if err != nil || imgSize != size || int64(len(img)) != size {
		t.Fatalf("WALImage: %d bytes, size %d, err %v; WALSize %d", len(img), imgSize, err, size)
	}
	if appended {
		var n int64 // an append that failed to open left no file
		if st, err := os.Stat(filepath.Join(s.root, "graphs", "g", walFile)); err == nil {
			n = st.Size()
		} else if !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if n != size {
			t.Fatalf("WAL file is %d bytes, WALSize %d", n, size)
		}
	}
	sameBatches(t, r.pull(t, s), m.batches)
}

// TestFSFaultScript fails, one run at a time, every file call that a
// seeded script of SaveSnapshot, AppendBatch and Delete makes (each failed
// write lands half its bytes). Every fault must surface as the Store
// call's error, except a failed removal of the old WAL after a snapshot's
// rename, which leaves an inert log and is no failure of the save. A
// failed directory sync after that rename puts the store into its failed
// state: the save and every later write return ErrFailed until a reopen.
// After each fault, Load, WALImage, WALSize, the file's length and a
// replica's pull must agree on the last acknowledged state, the next
// acknowledged version must reach the replica, and a reopened store must
// hold exactly that state.
func TestFSFaultScript(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		script := faultScript(rand.New(rand.NewSource(seed)), 16)
		total := runFaultScript(t, script, 0)
		for failAt := 1; failAt <= total; failAt++ {
			t.Run(fmt.Sprintf("seed%d/call%d", seed, failAt), func(t *testing.T) {
				runFaultScript(t, script, failAt)
			})
		}
	}
}

// runFaultScript runs script on a fresh store, failing file call failAt
// (0: none), and returns the number of file calls the clean prefix made.
func runFaultScript(t *testing.T, script []faultStep, failAt int) int {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	ff := injectFaults(s, failAt)
	var (
		m   faultModel
		r   faultReplica
		ver uint64
	)
	reopen := func() *FS {
		t.Helper()
		reopened, err := OpenFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		snap, batches, err := reopened.Load("g")
		if err != nil || snap.Meta.Version != m.snap.Meta.Version {
			t.Fatalf("reopened: snapshot %v, err %v; want version %d", snap, err, m.snap.Meta.Version)
		}
		sameBatches(t, batches, m.batches)
		return reopened
	}
	for i, st := range script {
		ver = max(ver, st.ver)
		err := st.do(s)
		if failAt == 0 || len(ff.calls) < failAt {
			if err != nil {
				t.Fatalf("step %d (%s): %v", i, st.op, err)
			}
			m.ack(st)
			checkAgree(t, s, &m, &r, st.op == "append")
			continue
		}
		// The next acknowledged version: a batch, or a snapshot if the
		// name has none.
		next := func() faultStep {
			ver++
			if m.snap == nil {
				return faultStep{op: "save", ver: ver}
			}
			return faultStep{op: "append", ver: ver, batch: &Batch{Edits: []BatchOp{{OpAdd, 0, 1}}}}
		}
		failed := ff.calls[failAt-1]
		switch {
		case st.op == "save" && failed == "remove":
			// After the rename: the stale log is inert.
			if err != nil {
				t.Fatalf("step %d (save): the failed WAL removal after the rename was reported: %v", i, err)
			}
			m.ack(st)
		case err == nil:
			t.Fatalf("step %d (%s): the failed %s call was not reported", i, st.op, failed)
		case st.op == "save" && failed == "syncDir":
			// The rename landed, so here the new snapshot is the one on
			// disk; the store cannot know that and refuses every write.
			if !errors.Is(err, ErrFailed) {
				t.Fatalf("step %d (save): failed directory sync: %v, want ErrFailed", i, err)
			}
			m.ack(st)
			checkAgree(t, s, &m, &r, false)
			for _, st := range []faultStep{next(), {op: "save", ver: ver}, {op: "delete"}} {
				if err := st.do(s); !errors.Is(err, ErrFailed) {
					t.Fatalf("failed store, %s: %v, want ErrFailed", st.op, err)
				}
			}
			checkAgree(t, s, &m, &r, false)
			s = reopen()
		case errors.Is(err, ErrFailed):
			t.Fatalf("step %d (%s): the failed %s call failed the store: %v", i, st.op, failed, err)
		}
		checkAgree(t, s, &m, &r, st.op == "append")

		st := next()
		if err := st.do(s); err != nil {
			t.Fatalf("after the fault, %s: %v", st.op, err)
		}
		m.ack(st)
		checkAgree(t, s, &m, &r, st.op == "append")
		reopen()
		return len(ff.calls)
	}
	if failAt != 0 {
		t.Fatalf("the script made %d file calls, fewer than %d", len(ff.calls), failAt)
	}
	return len(ff.calls)
}
