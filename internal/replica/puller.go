package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"encoding/json"

	"nucleus/internal/sched"
	"nucleus/internal/store"
)

// Config wires a Puller to its primary and its local applier.
type Config struct {
	// Primary is the base URL of the node to pull from (changeable at
	// runtime via SetPrimary when the router promotes a new primary).
	Primary string
	// Applier receives the shipped state.
	Applier Applier
	// Generation returns this node's current cluster generation; pulls
	// from sources below it are rejected (ErrStaleSource).
	Generation func() uint64
	// AdoptGeneration, if non-nil, is invoked when the source advertises
	// a newer generation than ours — the normal state of a surviving
	// replica repointed at a freshly promoted primary.
	AdoptGeneration func(uint64)
	// Clock measures replication lag; nil means the wall clock. Tests
	// inject sched.NewFakeClock for deterministic lag assertions.
	Clock sched.Clock
	// Client performs the HTTP pulls; nil means http.DefaultClient.
	Client *http.Client
	// ChunkBytes caps one WAL request; <= 0 defaults to 4 MiB.
	ChunkBytes int64
	// Interval is the Run loop cadence; <= 0 defaults to 1s. (PullOnce
	// callers — tests, the cluster harness — never start Run.)
	Interval time.Duration
}

// errNeedResync is the internal signal that the WAL cannot be extended
// onto the local state (corrupt frame, compaction reset, or a log whose
// base snapshot is newer than what we hold): fall back to a snapshot.
var errNeedResync = fmt.Errorf("replica: WAL not extendable, snapshot resync required")

// maxSyncRounds bounds the resync↔tail loop for one graph within one
// PullOnce. Convergence normally takes at most two rounds (snapshot,
// then tail); racing a concurrent compaction can add one more.
const maxSyncRounds = 4

// graphState is the pull cursor for one graph: how many WAL bytes have
// been consumed and the incremental frame scanner positioned there.
type graphState struct {
	offset  int64
	scanner *store.WALScanner
}

// Puller tails a primary's replication endpoints and applies what it
// finds. All methods are safe for concurrent use; PullOnce runs are
// serialized internally so the background Run loop and a manual call
// cannot interleave half-applied cycles.
type Puller struct {
	cfg    Config
	client *http.Client
	clock  sched.Clock

	// pullMu serializes whole pull cycles; mu guards the fields below.
	pullMu      sync.Mutex
	mu          sync.Mutex
	primary     string
	states      map[string]*graphState
	status      Status
	behindSince time.Time
	behind      bool

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

// NewPuller constructs a Puller; call Run to start background pulling
// or PullOnce to drive it manually.
func NewPuller(cfg Config) *Puller {
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	clock := cfg.Clock
	if clock == nil {
		clock = sched.RealClock()
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 4 << 20
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	return &Puller{
		cfg:     cfg,
		client:  client,
		clock:   clock,
		primary: cfg.Primary,
		states:  make(map[string]*graphState),
		status:  Status{Primary: cfg.Primary},
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Primary returns the current source base URL.
func (p *Puller) Primary() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.primary
}

// SetPrimary repoints the puller at a new source (after a promotion).
// Pull cursors reset lazily: offsets into the old primary's logs are
// meaningless against the new one, so every graph re-tails from zero
// and relies on version dedup.
func (p *Puller) SetPrimary(url string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if url == p.primary {
		return
	}
	p.primary = url
	p.status.Primary = url
	p.states = make(map[string]*graphState)
}

// Status returns a consistent snapshot of pull progress, with LagMs
// evaluated against the clock now.
func (p *Puller) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.status
	if p.behind {
		st.LagMs = float64(p.clock.Now().Sub(p.behindSince)) / float64(time.Millisecond)
	}
	return st
}

// Run pulls every Interval until Stop. It is the background mode used
// by a live replica; deterministic tests call PullOnce instead.
func (p *Puller) Run() {
	defer close(p.done)
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
			// Errors are recorded in Status and retried next tick.
			p.PullOnce(context.Background())
		}
	}
}

// Stop terminates Run and waits for the in-flight pull, if any.
func (p *Puller) Stop() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	<-p.done
}

// StopNoWait is Stop for pullers whose Run was never started.
func (p *Puller) StopNoWait() {
	p.stopOnce.Do(func() { close(p.stopCh) })
}

// PullOnce executes one full pull cycle: fetch the manifest, sync every
// graph it names, drop local graphs it does not, and update lag. The
// first error is returned after the remaining graphs were still tried.
func (p *Puller) PullOnce(ctx context.Context) error {
	p.pullMu.Lock()
	defer p.pullMu.Unlock()

	primary := p.Primary()
	man, err := p.fetchManifest(ctx, primary)
	if err != nil {
		p.recordError(err, false)
		return err
	}
	if myGen := p.gen(); man.Generation < myGen {
		err := fmt.Errorf("%w: source %s at generation %d, node at %d", ErrStaleSource, primary, man.Generation, myGen)
		p.recordError(err, true)
		return err
	} else if man.Generation > myGen && p.cfg.AdoptGeneration != nil {
		p.cfg.AdoptGeneration(man.Generation)
	}

	var firstErr error
	manifested := make(map[string]bool, len(man.Graphs))
	for _, mg := range man.Graphs {
		manifested[mg.Name] = true
		if err := p.syncGraph(ctx, primary, mg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, name := range p.cfg.Applier.GraphNames() {
		if manifested[name] {
			continue
		}
		if err := p.cfg.Applier.DropGraph(name); err != nil && firstErr == nil {
			firstErr = err
		}
		p.mu.Lock()
		delete(p.states, name)
		p.mu.Unlock()
	}

	var lag int64
	for _, mg := range man.Graphs {
		local, ok := p.cfg.Applier.GraphVersion(mg.Name)
		if !ok {
			local = 0
		}
		if mg.Version > local {
			lag += int64(mg.Version - local)
		}
	}
	p.mu.Lock()
	p.status.Pulls++
	p.status.LagVersions = lag
	if lag == 0 {
		p.behind = false
		p.status.LagMs = 0
	} else if !p.behind {
		p.behind = true
		p.behindSince = p.clock.Now()
	}
	p.mu.Unlock()
	if firstErr != nil {
		p.recordError(firstErr, false)
	}
	return firstErr
}

func (p *Puller) gen() uint64 {
	if p.cfg.Generation == nil {
		return 0
	}
	return p.cfg.Generation()
}

func (p *Puller) recordError(err error, stale bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.status.PullErrors++
	if stale {
		p.status.StalePulls++
	}
	p.status.LastError = err.Error()
}

func (p *Puller) stateFor(name string) *graphState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.states[name]
	if !ok {
		st = &graphState{scanner: store.NewWALScanner()}
		p.states[name] = st
	}
	return st
}

// syncGraph brings one graph to the manifest's version, alternating
// between tailing the WAL and full snapshot resyncs until it converges
// or the round bound trips (a racing manifest; the next pull retries).
func (p *Puller) syncGraph(ctx context.Context, primary string, mg ManifestGraph) error {
	st := p.stateFor(mg.Name)
	for round := 0; round < maxSyncRounds; round++ {
		local, exists := p.cfg.Applier.GraphVersion(mg.Name)
		if exists && local >= mg.Version {
			return nil
		}
		if !exists {
			if err := p.resync(ctx, primary, mg.Name, st); err != nil {
				return err
			}
			continue
		}
		progressed, err := p.tailWAL(ctx, primary, mg.Name, st, local)
		switch {
		case err == errNeedResync || (err == nil && !progressed):
			if rerr := p.resync(ctx, primary, mg.Name, st); rerr != nil {
				return rerr
			}
		case err != nil:
			return err
		}
	}
	if local, _ := p.cfg.Applier.GraphVersion(mg.Name); local < mg.Version {
		return fmt.Errorf("replica: %q stalled at version %d (manifest %d)", mg.Name, local, mg.Version)
	}
	return nil
}

// tailWAL pulls and applies WAL bytes from the graph's cursor until the
// source reports no more. progressed reports whether any batch applied.
func (p *Puller) tailWAL(ctx context.Context, primary, name string, st *graphState, localVer uint64) (bool, error) {
	progressed := false
	for {
		chunk, walSize, srcGen, err := p.fetchWAL(ctx, primary, name, st.offset)
		if err != nil {
			return progressed, err
		}
		if myGen := p.gen(); srcGen < myGen {
			err := fmt.Errorf("%w: WAL source at generation %d, node at %d", ErrStaleSource, srcGen, myGen)
			p.recordError(err, true)
			return progressed, err
		}
		if walSize < st.offset {
			// The log was reset under us (compaction folded it into a new
			// snapshot); the cursor is meaningless.
			return progressed, errNeedResync
		}
		if len(chunk) == 0 {
			return progressed, nil
		}
		st.offset += int64(len(chunk))
		p.mu.Lock()
		p.status.BytesPulled += int64(len(chunk))
		p.mu.Unlock()
		st.scanner.Feed(chunk)
		for {
			cb, err := st.scanner.Next()
			if errors.Is(err, store.ErrWALFormat) { // a resync would fetch the same log
				st.offset, st.scanner = 0, store.NewWALScanner()
				return progressed, fmt.Errorf("replica: WAL of %q at %s: %w", name, primary, err)
			}
			if err != nil {
				return progressed, errNeedResync
			}
			if cb == nil {
				break
			}
			if gen, ok := st.scanner.Generation(); ok && localVer < gen {
				// This log extends a snapshot newer than our state: we
				// missed a compaction epoch; batches here presume a base
				// we do not have.
				return progressed, errNeedResync
			}
			if cb.Version <= localVer {
				p.mu.Lock()
				p.status.DuplicatesSkipped++
				p.mu.Unlock()
				continue
			}
			applied, err := p.cfg.Applier.ApplyBatch(name, &cb.Batch, cb.Version)
			if err != nil {
				// The cursor is past a batch that did not apply: tail the
				// log again from its start, where the version check skips
				// the batches that did.
				st.offset, st.scanner = 0, store.NewWALScanner()
				return progressed, err
			}
			p.mu.Lock()
			if applied {
				p.status.BatchesApplied++
			} else {
				p.status.DuplicatesSkipped++
			}
			p.mu.Unlock()
			if applied {
				localVer = cb.Version
				progressed = true
			}
		}
		if gen, ok := st.scanner.Generation(); ok && localVer < gen {
			return progressed, errNeedResync
		}
		if st.offset >= walSize {
			return progressed, nil
		}
	}
}

// resync installs the primary's current snapshot (when it advances the
// local state) and resets the WAL cursor to re-tail the fresh log.
func (p *Puller) resync(ctx context.Context, primary, name string, st *graphState) error {
	img, srcGen, err := p.fetchSnapshot(ctx, primary, name)
	if err != nil {
		return err
	}
	if myGen := p.gen(); srcGen < myGen {
		err := fmt.Errorf("%w: snapshot source at generation %d, node at %d", ErrStaleSource, srcGen, myGen)
		p.recordError(err, true)
		return err
	}
	snap, err := store.DecodeSnapshot(img)
	if err != nil {
		return fmt.Errorf("replica: decoding shipped snapshot of %q: %w", name, err)
	}
	local, exists := p.cfg.Applier.GraphVersion(name)
	if !exists || snap.Meta.Version > local {
		if err := p.cfg.Applier.InstallSnapshot(name, snap); err != nil {
			return err
		}
		p.mu.Lock()
		p.status.SnapshotsInstalled++
		p.mu.Unlock()
	}
	st.offset = 0
	st.scanner = store.NewWALScanner()
	return nil
}

// ---------------------------------------------------------------------------
// HTTP fetches.

func (p *Puller) fetchManifest(ctx context.Context, primary string) (*Manifest, error) {
	body, _, err := p.get(ctx, primary+"/replication/manifest")
	if err != nil {
		return nil, err
	}
	var man Manifest
	if err := json.Unmarshal(body, &man); err != nil {
		return nil, fmt.Errorf("replica: decoding manifest: %w", err)
	}
	return &man, nil
}

func (p *Puller) fetchWAL(ctx context.Context, primary, name string, offset int64) (chunk []byte, walSize int64, srcGen uint64, err error) {
	u := fmt.Sprintf("%s/replication/wal/%s?offset=%d&limit=%d",
		primary, url.PathEscape(name), offset, p.cfg.ChunkBytes)
	body, hdr, err := p.get(ctx, u)
	if err != nil {
		return nil, 0, 0, err
	}
	walSize, err = strconv.ParseInt(hdr.Get(WALSizeHeader), 10, 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("replica: bad %s header: %w", WALSizeHeader, err)
	}
	srcGen, err = strconv.ParseUint(hdr.Get(GenerationHeader), 10, 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("replica: bad %s header: %w", GenerationHeader, err)
	}
	return body, walSize, srcGen, nil
}

func (p *Puller) fetchSnapshot(ctx context.Context, primary, name string) (img []byte, srcGen uint64, err error) {
	body, hdr, err := p.get(ctx, primary+"/replication/snapshot/"+url.PathEscape(name))
	if err != nil {
		return nil, 0, err
	}
	srcGen, err = strconv.ParseUint(hdr.Get(GenerationHeader), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("replica: bad %s header: %w", GenerationHeader, err)
	}
	return body, srcGen, nil
}

func (p *Puller) get(ctx context.Context, url string) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<30))
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		snippet := body
		if len(snippet) > 200 {
			snippet = snippet[:200]
		}
		return nil, nil, fmt.Errorf("replica: GET %s: %s: %s", url, resp.Status, snippet)
	}
	return body, resp.Header, nil
}
