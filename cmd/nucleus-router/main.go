// Command nucleus-router fronts a fleet of replicated nucleusd shard
// groups (docs/REPLICATION.md): it consistent-hashes graph names across
// groups, proxies mutations to each group's primary stamped with the
// group's cluster generation, fans reads out across the replicas, and
// keeps async job traffic sticky via node-suffixed job ids. A
// background health loop probes every primary and fails a dead one
// over to its most caught-up replica.
//
//	nucleus-router -addr :9000 \
//	  -group shard0=http://10.0.0.1:8080,http://10.0.0.2:8080 \
//	  -group shard1=http://10.0.1.1:8080,http://10.0.1.2:8080
//
// Each -group is name=primaryURL[,replicaURL...]. The router itself is
// stateless: restart it with the same -group topology and traffic
// resumes; generations are re-learned from the nodes on the first
// health sweep.
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
	"strings"
	"syscall"
	"time"

	"nucleus/internal/router"
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
	fs := flag.NewFlagSet("nucleus-router", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", ":9000", "listen address")
		vnodes        = fs.Int("vnodes", 64, "virtual nodes per group on the hash ring")
		generation    = fs.Uint64("generation", 1, "starting cluster generation stamped on proxied writes")
		checkInterval = fs.Duration("check-interval", 2*time.Second, "fleet health probe cadence; 0 disables the background loop (POST /router/check still works)")
		proxyTimeout  = fs.Duration("proxy-timeout", 0, "per-request upstream timeout; 0 means unbounded (long decompose reads and SSE streams)")
		probeTimeout  = fs.Duration("probe-timeout", 2*time.Second, "health/status probe timeout")
	)
	var groups []router.GroupConfig
	fs.Func("group", "shard group as name=primaryURL[,replicaURL...] (repeatable)", func(v string) error {
		name, urls, ok := strings.Cut(v, "=")
		if !ok || name == "" || urls == "" {
			return fmt.Errorf("want name=primaryURL[,replicaURL...], got %q", v)
		}
		parts := strings.Split(urls, ",")
		groups = append(groups, router.GroupConfig{
			Name:     name,
			Primary:  strings.TrimSpace(parts[0]),
			Replicas: trimAll(parts[1:]),
		})
		return nil
	})
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if len(groups) == 0 {
		return errors.New("at least one -group is required")
	}
	if *vnodes <= 0 {
		return fmt.Errorf("-vnodes must be a positive integer (got %d)", *vnodes)
	}
	if *generation == 0 {
		return errors.New("-generation must be >= 1")
	}
	if *checkInterval < 0 || *proxyTimeout < 0 || *probeTimeout <= 0 {
		return errors.New("-check-interval and -proxy-timeout must be >= 0, -probe-timeout must be positive")
	}

	rt, err := router.New(router.Config{
		Groups:      groups,
		VNodes:      *vnodes,
		Generation:  *generation,
		Client:      &http.Client{Timeout: *proxyTimeout},
		ProbeClient: &http.Client{Timeout: *probeTimeout},
	})
	if err != nil {
		return err
	}
	if *checkInterval > 0 {
		go rt.Run(*checkInterval)
		defer rt.Stop()
	}

	httpSrv := newHTTPServer(*addr, rt)
	errCh := make(chan error, 1)
	go func() {
		log.Printf("nucleus-router listening on %s (%d groups, generation %d, check every %v)",
			*addr, len(groups), *generation, *checkInterval)
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
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	return <-errCh
}

func trimAll(in []string) []string {
	var out []string
	for _, s := range in {
		if t := strings.TrimSpace(s); t != "" {
			out = append(out, t)
		}
	}
	return out
}
