// Command nucleusd serves nucleus decompositions over HTTP/JSON: a graph
// registry, an asynchronous decomposition job queue with an LRU result
// cache, anytime serving of in-flight jobs (progress polling, SSE
// streaming, cooperative cancellation, deadline/sweep-budgeted
// synchronous queries), and synchronous query-driven estimation,
// hierarchy and densest-subgraph endpoints. See docs/API.md for the
// endpoint reference and docs/ANYTIME.md for the anytime model.
//
//	nucleusd -addr :8080 -workers 4 -cache 64
//	nucleusd -addr :8080 -data-dir /var/lib/nucleusd   # durable
//	nucleusd -addr :8080 -progress-every 4             # sample anytime snapshots
//
// With -data-dir, uploads are persisted as binary snapshots and edit
// batches are write-ahead logged before they are applied; on startup the
// server replays snapshot+WAL and recovers every graph at its exact
// pre-restart version, warm-seeding the decomposition caches. See
// docs/OPERATIONS.md for the data-dir layout and recovery semantics.
//
// The server drains running decomposition jobs before exiting on SIGINT or
// SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	root "nucleus"
)

// Slow-client bounds (ROADMAP 5d): a connection must deliver its request
// headers within readHeaderTimeout and an idle keep-alive connection is
// closed after idleTimeout, so stalled clients cannot pin connections
// forever. Constants, not flags: no deployment needs another value. There
// is deliberately no WriteTimeout — SSE streams and synchronous
// decompositions legitimately take long to answer.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("nucleusd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 2, "decomposition worker pool size")
		queueDepth = fs.Int("queue", 64, "max queued (not yet running) jobs")
		cacheSize  = fs.Int("cache", 32, "LRU result cache capacity (entries)")
		jobThreads = fs.Int("job-threads", 1, "default threads per decomposition job")
		jobHistory = fs.Int("job-history", 256, "finished jobs retained for polling")
		maxUpload  = fs.Int64("max-upload-mb", 256, "max graph upload size in MiB")
		indexMem   = fs.Int64("index-mem-budget", 1024, "flat s-clique index budget per instance in MiB (0 disables indexing)")
		dataDir    = fs.String("data-dir", "", "directory for durable graph storage (snapshots + WAL); empty disables persistence")
		walCompact = fs.Int64("wal-compact-threshold", 4, "per-graph WAL size in MiB beyond which the compactor folds the log into a fresh snapshot (0 disables compaction)")
		progEvery  = fs.Int("progress-every", 1, "publish an anytime progress snapshot every k-th sweep of running jobs (0 disables progress publishing)")
		// Workload-aware scheduling (see docs/OPERATIONS.md, "Scheduling &
		// multi-tenancy"): per-tenant quotas and the deadline-less
		// overload-shedding ceiling.
		tenantQuota  = fs.Int("tenant-quota", 0, "max queued jobs per tenant (X-Nucleus-Tenant); 0 means the global -queue bound only")
		maxQueueWait = fs.Duration("max-queue-wait", 0, "shed deadline-less submissions whose predicted queue wait exceeds this (503 + Retry-After); 0 disables the guard")
		// Replication (see docs/REPLICATION.md): the node's fleet role,
		// the primary a replica tails, and per-tenant scheduling weights.
		role         = fs.String("role", "", "replication role: primary, replica, or empty for standalone")
		primary      = fs.String("primary", "", "base URL of the primary this replica pulls from (requires -role replica)")
		pullInterval = fs.Duration("pull-interval", time.Second, "replica pull cadence; requires -role replica")
		generation   = fs.Uint64("generation", 0, "starting cluster generation (0 keeps the default)")
	)
	tenantWeights := map[string]int{}
	fs.Func("tenant-weight", "per-tenant DRR weight as name=K, K >= 1 (repeatable)", func(v string) error {
		name, k, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("want name=K, got %q", v)
		}
		w, err := strconv.Atoi(k)
		if err != nil || w < 1 {
			return fmt.Errorf("weight for %q must be an integer >= 1, got %q", name, k)
		}
		tenantWeights[name] = w
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	// Reject nonsensical sizes outright instead of silently substituting
	// defaults: a -cache 0 that quietly became 32 would mask an operator
	// mistake (and a non-positive capacity used to make the LRU evict its
	// own insertions).
	for _, f := range []struct {
		name  string
		value int
	}{
		{"workers", *workers},
		{"queue", *queueDepth},
		{"cache", *cacheSize},
		{"job-threads", *jobThreads},
		{"job-history", *jobHistory},
	} {
		if f.value <= 0 {
			return fmt.Errorf("-%s must be a positive integer (got %d)", f.name, f.value)
		}
	}
	if *maxUpload <= 0 {
		return fmt.Errorf("-max-upload-mb must be a positive integer (got %d)", *maxUpload)
	}
	if *indexMem < 0 {
		return fmt.Errorf("-index-mem-budget must be >= 0 MiB (got %d; 0 disables indexing)", *indexMem)
	}
	if *walCompact < 0 {
		return fmt.Errorf("-wal-compact-threshold must be >= 0 MiB (got %d; 0 disables compaction)", *walCompact)
	}
	if *progEvery < 0 {
		return fmt.Errorf("-progress-every must be >= 0 (got %d; 0 disables progress publishing)", *progEvery)
	}
	if *tenantQuota < 0 {
		return fmt.Errorf("-tenant-quota must be >= 0 (got %d; 0 applies the global -queue bound only)", *tenantQuota)
	}
	if *tenantQuota > *queueDepth {
		return fmt.Errorf("-tenant-quota (%d) cannot exceed -queue (%d)", *tenantQuota, *queueDepth)
	}
	if *maxQueueWait < 0 {
		return fmt.Errorf("-max-queue-wait must be >= 0 (got %v; 0 disables the overload guard)", *maxQueueWait)
	}
	switch *role {
	case "", root.RolePrimary:
		if *primary != "" {
			return fmt.Errorf("-primary requires -role replica (got -role %q)", *role)
		}
	case root.RoleReplica:
		if *primary == "" {
			return errors.New("-role replica requires -primary")
		}
		if *dataDir == "" {
			return errors.New("-role replica requires -data-dir (a replica must be promotable, so it persists what it applies)")
		}
		if *pullInterval <= 0 {
			return fmt.Errorf("-pull-interval must be positive (got %v)", *pullInterval)
		}
	default:
		return fmt.Errorf("-role must be primary, replica, or empty (got %q)", *role)
	}
	// 0 MiB means "no flat indexes", which the Config encodes as a
	// negative budget (its zero value selects the 1 GiB default).
	indexBudget := *indexMem << 20
	if *indexMem == 0 {
		indexBudget = -1
	}
	// Same sentinel dance for compaction: 0 MiB on the flag means "never
	// compact", which the Config encodes as a negative threshold.
	walThreshold := *walCompact << 20
	if *walCompact == 0 {
		walThreshold = -1
	}
	// And for progress: 0 on the flag disables publishing, which the
	// Config encodes as a negative sampling interval.
	progressEvery := *progEvery
	if progressEvery == 0 {
		progressEvery = -1
	}

	var st root.GraphStore
	if *dataDir != "" {
		var err error
		if st, err = root.OpenFSStore(*dataDir); err != nil {
			return err
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("closing store: %v", err)
			}
		}()
	}

	srv := root.NewServer(root.ServerConfig{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		TenantQueueDepth: *tenantQuota,
		MaxQueueWait:     *maxQueueWait,
		CacheSize:        *cacheSize,
		JobThreads:       *jobThreads,
		JobHistory:       *jobHistory,
		MaxUploadBytes:   *maxUpload << 20,
		IndexMemBudget:   indexBudget,
		Store:            st,
		WALCompactBytes:  walThreshold,
		ProgressEvery:    progressEvery,
		TenantWeights:    tenantWeights,
		Replication: root.ReplicationConfig{
			Role:         *role,
			Primary:      *primary,
			Generation:   *generation,
			PullInterval: *pullInterval,
		},
	})
	defer srv.Close()

	httpSrv := newHTTPServer(*addr, srv)
	errCh := make(chan error, 1)
	go func() {
		durable := "persistence off"
		if *dataDir != "" {
			durable = "data-dir " + *dataDir
		}
		log.Printf("nucleusd listening on %s (workers=%d queue=%d cache=%d, %s)",
			*addr, *workers, *queueDepth, *cacheSize, durable)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	srv.Close() // drain the job queue after the listener stops
	return <-errCh
}
