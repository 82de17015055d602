package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// FS is the filesystem Store: one directory per graph under
// <root>/graphs/, holding the current snapshot and the WAL,
//
//	<root>/graphs/<encoded-name>/snapshot.nsnap
//	<root>/graphs/<encoded-name>/wal.log
//
// Snapshots are replaced atomically (write to a temp file, fsync, rename,
// fsync the directory), so a crash mid-save leaves the previous snapshot
// intact. WAL appends are fsynced before they return. Graph names are
// percent-encoded into a filesystem-safe alphabet, so any HTTP path
// segment — including ".", ".." and unicode — maps to a distinct,
// traversal-proof directory.
type FS struct {
	root  string
	files fileLayer

	mu     sync.Mutex
	graphs map[string]*fsGraph
	failed atomic.Pointer[error] // once set, every write's error (ErrFailed)
}

// fileLayer is every file operation by which FS changes the disk. OpenFS
// sets osFiles; the store's tests swap in one that fails a chosen call.
type fileLayer interface {
	openFile(path string, flag int) (file, error)
	createTemp(dir, pattern string) (file, error)
	rename(from, to string) error
	remove(path string) error // a file or a whole tree; absent is not an error
	truncate(path string, size int64) error
	syncDir(dir string) error
}

// file is the part of *os.File that FS writes through.
type file interface {
	Write(p []byte) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
	Close() error
	Name() string
}

type osFiles struct{}

func (osFiles) openFile(path string, flag int) (file, error) { return os.OpenFile(path, flag, 0o644) }
func (osFiles) createTemp(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) }
func (osFiles) rename(from, to string) error                 { return os.Rename(from, to) }
func (osFiles) remove(path string) error                     { return os.RemoveAll(path) }
func (osFiles) truncate(path string, size int64) error       { return os.Truncate(path, size) }

// syncDir fsyncs a directory so a just-renamed file is durable.
func (osFiles) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// fsGraph is the per-name state: a lock serializing file operations, a
// cached WAL size so compaction checks never hit the filesystem, and the
// generation (snapshot Meta.Version) the WAL extends.
type fsGraph struct {
	mu      sync.Mutex
	dir     string
	walSize atomic.Int64
	// gen is the Meta.Version of the snapshot on disk, stamped into the
	// WAL header so replay can reject a log stranded by a crash between a
	// snapshot replacement and its WAL truncation. 0 = not yet known
	// (resolved lazily from the snapshot file on the first append).
	gen uint64
	// format is the WAL header's format: a batch is logged with its core
	// numbers only in a log of walFormat, which this process started or
	// loaded; 0 = not known, and batch frames, which every format reads,
	// are appended.
	format uint64
	staged atomic.Pointer[Batch] // BeginBatch's, for CommitBatch
}

const (
	snapshotFile = "snapshot.nsnap"
	walFile      = "wal.log"
)

// OpenFS opens (creating as needed) a filesystem store rooted at dir.
func OpenFS(dir string) (*FS, error) {
	if err := os.MkdirAll(filepath.Join(dir, "graphs"), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	return &FS{root: dir, files: osFiles{}, graphs: make(map[string]*fsGraph)}, nil
}

// byName returns the per-name state, creating it (and priming the cached
// WAL size from disk) on first use.
func (s *FS) byName(name string) *fsGraph {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.graphs[name]
	if !ok {
		g = &fsGraph{dir: filepath.Join(s.root, "graphs", encodeName(name))}
		if st, err := os.Stat(filepath.Join(g.dir, walFile)); err == nil {
			g.walSize.Store(st.Size())
		}
		s.graphs[name] = g
	}
	return g
}

// SaveSnapshot implements Store. The rename is the commit point: a failure
// before it leaves the previous snapshot and its WAL as they were; after
// it, the new snapshot (which folds in every logged batch) is on disk.
func (s *FS) SaveSnapshot(name string, snap *Snapshot) error {
	if err := s.failed.Load(); err != nil {
		return *err
	}
	g := s.byName(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := os.MkdirAll(g.dir, 0o755); err != nil {
		return err
	}
	tmp, err := s.files.createTemp(g.dir, snapshotFile+".tmp*")
	if err != nil {
		return err
	}
	err = EncodeSnapshot(tmp, snap)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.files.rename(tmp.Name(), filepath.Join(g.dir, snapshotFile))
	}
	if err != nil {
		s.files.remove(tmp.Name()) // the failed step's error is what the caller must see
		return err
	}
	// The new snapshot is the one on disk from here on: the next WAL append
	// starts a fresh log stamped with its generation.
	g.gen = snap.Meta.Version
	g.walSize.Store(0)
	if err := s.files.syncDir(g.dir); err != nil {
		// Which snapshot a restart reads is now unknown, and a batch logged
		// against either could be replayed onto the other: refuse writes.
		failed := fmt.Errorf("%w: the snapshot of %q was renamed into place, but syncing %s failed (%v)", ErrFailed, name, g.dir, err)
		s.failed.Store(&failed)
		return fmt.Errorf("%w; whether this snapshot or the previous one survives a restart is unknown", failed)
	}
	// A log the removal leaves behind is inert: replay discards it by its
	// header generation, and the next append truncates it.
	s.files.remove(filepath.Join(g.dir, walFile))
	return nil
}

// BeginBatch stages b and writes nothing; CommitBatch appends it at
// version, and must follow a BeginBatch. They remain only for the
// benchmark's shadow replay (bench/fleet.go); ROADMAP 5(d) points it at
// AppendBatch and deletes both.
func (s *FS) BeginBatch(name string, b *Batch) (int, error) {
	s.byName(name).staged.Store(b)
	return 0, nil
}

// CommitBatch: see BeginBatch.
func (s *FS) CommitBatch(name string, version uint64) (int, error) {
	return s.AppendBatch(name, version, s.byName(name).staged.Swap(nil))
}

// AppendBatch implements Store.
func (s *FS) AppendBatch(name string, version uint64, b *Batch) (int, error) {
	if err := s.failed.Load(); err != nil {
		return 0, *err
	}
	if b.HasCores && !ascendingCores(b.Cores) {
		return 0, fmt.Errorf("store: batch for %q at version %d lists core numbers out of vertex order", name, version)
	}
	g := s.byName(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	path := filepath.Join(g.dir, walFile)
	size := g.walSize.Load()
	flag := os.O_CREATE | os.O_WRONLY
	var header []byte
	if size == 0 {
		// First frame of a fresh log: prepend the header naming the
		// snapshot generation this WAL extends (one write, one fsync), and
		// drop whatever a dead lineage or a failed append left in the file.
		// A live log's directory is not recreated: one removed under it
		// held the snapshot, and a batch logged without that is one no
		// restart can recover.
		if err := os.MkdirAll(g.dir, 0o755); err != nil {
			return 0, err
		}
		flag |= os.O_TRUNC
		if g.gen == 0 {
			// Generation unknown: this process has neither saved nor loaded
			// the snapshot (possible only for library users driving the
			// store directly). Resolve it from disk once.
			data, err := os.ReadFile(filepath.Join(g.dir, snapshotFile))
			if err != nil {
				return 0, fmt.Errorf("store: WAL append for %q with no known snapshot: %w", name, err)
			}
			snap, err := DecodeSnapshot(data)
			if err != nil {
				return 0, err
			}
			g.gen = snap.Meta.Version
		}
		header, g.format = encodeHeaderFrame(g.gen), walFormat
	}
	frame := append(header, encodeBatchFrame(version, b, g.format == walFormat)...)
	f, err := s.files.openFile(path, flag)
	if err != nil {
		return 0, err
	}
	_, err = f.WriteAt(frame, size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// A failed frame leaves no trace: cut the file back to the last
		// frame that was acknowledged, so its length, WALSize, WALImage
		// and Load agree. Should the cut fail too, the next append still
		// writes at this offset. The append's error is what the caller
		// must see.
		s.files.truncate(path, size)
		return 0, err
	}
	g.walSize.Store(size + int64(len(frame)))
	return len(frame), nil
}

// Load implements Store. A corrupt WAL tail is truncated in place so
// future appends continue from the last intact frame. It is LoadThreads
// with a single thread.
func (s *FS) Load(name string) (*Snapshot, []CommittedBatch, error) {
	return s.LoadThreads(name, 1)
}

// LoadThreads implements ThreadedLoader: Load with the snapshot's CSR
// construction fanned across threads. Bit-identical to Load.
func (s *FS) LoadThreads(name string, threads int) (*Snapshot, []CommittedBatch, error) {
	g := s.byName(name)
	g.mu.Lock()
	defer g.mu.Unlock()

	data, err := os.ReadFile(filepath.Join(g.dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, nil, ErrNotFound
	}
	if err != nil {
		return nil, nil, err
	}
	snap, err := DecodeSnapshotThreads(data, threads)
	if err != nil {
		return nil, nil, fmt.Errorf("decoding snapshot of %q: %w", name, err)
	}

	g.gen = snap.Meta.Version
	walPath := filepath.Join(g.dir, walFile)
	wal, err := os.ReadFile(walPath)
	if os.IsNotExist(err) {
		return snap, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	gen, format, hasHeader, batches, goodLen, err := decodeFrames(wal)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", walPath, err)
	}
	if !hasHeader || gen != snap.Meta.Version {
		// The log does not extend THIS snapshot: either it survived a crash
		// or a failed removal after a snapshot replacement (stale
		// generation), or its header is torn. Its batches belong to a dead
		// lineage — discard the file rather than replay them.
		if err := s.files.remove(walPath); err != nil {
			return nil, nil, fmt.Errorf("removing stale WAL of %q: %w", name, err)
		}
		g.walSize.Store(0)
		return snap, nil, nil
	}
	if goodLen < len(wal) {
		if err := s.files.truncate(walPath, int64(goodLen)); err != nil {
			return nil, nil, fmt.Errorf("truncating torn WAL tail of %q: %w", name, err)
		}
	}
	g.walSize.Store(int64(goodLen))
	g.format = format
	return snap, batches, nil
}

// SnapshotImage implements ReplicationSource: the raw on-disk snapshot
// file, already framed and checksummed by the codec, served byte-for-byte
// to a pulling replica.
func (s *FS) SnapshotImage(name string) ([]byte, error) {
	g := s.byName(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(g.dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	return data, err
}

// WALImage implements ReplicationSource: up to limit bytes of the WAL
// starting at offset, plus the log's current total size so the replica
// knows whether more bytes remain (and detects a compaction reset when
// the size falls below its offset). Reads hold the same per-graph lock
// as appends, so a chunk never ends inside a partially written frame.
func (s *FS) WALImage(name string, offset, limit int64) ([]byte, int64, error) {
	g := s.byName(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	size := g.walSize.Load()
	if offset < 0 {
		offset = 0
	}
	if offset >= size {
		return nil, size, nil
	}
	data, err := os.ReadFile(filepath.Join(g.dir, walFile))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, size, err
	}
	// The cached size is authoritative for replication: bytes past it
	// (a torn tail from a crashed predecessor, not yet truncated by
	// Load) must not ship.
	if int64(len(data)) > size {
		data = data[:size]
	}
	end := int64(len(data))
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	return data[offset:end], size, nil
}

// List implements Store.
func (s *FS) List() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "graphs"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name, err := decodeName(e.Name())
		if err != nil {
			return nil, fmt.Errorf("store: undecodable graph directory %q: %w", e.Name(), err)
		}
		names = append(names, name)
	}
	return names, nil
}

// Delete implements Store.
func (s *FS) Delete(name string) error {
	if err := s.failed.Load(); err != nil {
		return *err
	}
	g := s.byName(name)
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := s.files.remove(g.dir); err != nil {
		return err
	}
	g.walSize.Store(0)
	g.gen = 0
	return nil
}

// WALSize implements Store from the in-memory cache.
func (s *FS) WALSize(name string) int64 {
	return s.byName(name).walSize.Load()
}

// Durable implements Store.
func (s *FS) Durable() bool { return true }

// Close implements Store. The FS store holds no persistent handles —
// every append opens, syncs and closes — so there is nothing to flush.
func (s *FS) Close() error { return nil }

// encodeName maps an arbitrary graph name to a filesystem-safe directory
// name: bytes in [a-z0-9_-] pass through, everything else (including
// uppercase, '.', '%' and path separators) becomes %XX. The empty name
// encodes as a bare "%". Escaping uppercase keeps the mapping injective
// even on case-insensitive filesystems (macOS APFS, Windows NTFS), where
// directories "A" and "a" would otherwise collide.
func encodeName(name string) string {
	if name == "" {
		return "%"
	}
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			sb.WriteByte(c)
		} else {
			fmt.Fprintf(&sb, "%%%02X", c)
		}
	}
	return sb.String()
}

// decodeName inverts encodeName.
func decodeName(enc string) (string, error) {
	if enc == "%" {
		return "", nil
	}
	var sb strings.Builder
	for i := 0; i < len(enc); i++ {
		c := enc[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		if i+2 >= len(enc) {
			return "", fmt.Errorf("truncated %%-escape in %q", enc)
		}
		var b byte
		if _, err := fmt.Sscanf(enc[i+1:i+3], "%02X", &b); err != nil {
			return "", fmt.Errorf("bad %%-escape in %q: %w", enc, err)
		}
		sb.WriteByte(b)
		i += 2
	}
	return sb.String(), nil
}
