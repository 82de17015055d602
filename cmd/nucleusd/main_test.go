package main

import (
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunRejectsNonPositiveSizes(t *testing.T) {
	for _, args := range [][]string{
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-queue", "0"},
		{"-cache", "0"},
		{"-cache", "-1"},
		{"-job-threads", "0"},
		{"-job-history", "-5"},
		{"-max-upload-mb", "0"},
	} {
		err := run(args)
		if err == nil {
			t.Fatalf("%v: expected a validation error", args)
		}
		if !strings.Contains(err.Error(), "positive") {
			t.Fatalf("%v: unhelpful error %q", args, err)
		}
	}
}

func TestRunBadAddr(t *testing.T) {
	if err := run([]string{"-addr", "999.999.999.999:bad"}); err == nil {
		t.Fatal("expected listen error")
	}
}

func TestRunRejectsNegativeIndexBudget(t *testing.T) {
	err := run([]string{"-index-mem-budget", "-1"})
	if err == nil {
		t.Fatal("expected a validation error")
	}
	if !strings.Contains(err.Error(), "index-mem-budget") {
		t.Fatalf("unhelpful error %q", err)
	}
}

// TestRunRejectsOverflowingMiB: a MiB flag whose byte count would
// overflow int64 is an error naming the flag, not a wrapped value — 2^43
// MiB used to wrap to MinInt64 and 2^44 to 0, which silently disabled
// indexing, restored a default or disabled compaction. The address is
// unusable, so a value that got past validation fails at listen instead.
func TestRunRejectsOverflowingMiB(t *testing.T) {
	for _, flag := range []string{"-index-mem-budget", "-max-upload-mb", "-wal-compact-threshold"} {
		for _, value := range []string{
			strconv.FormatInt(1<<43, 10), // math.MaxInt64>>20 + 1
			strconv.FormatInt(1<<44, 10),
			strconv.FormatInt(math.MaxInt64, 10),
		} {
			err := run([]string{"-addr", "999.999.999.999:bad", flag, value})
			if err == nil || !strings.Contains(err.Error(), flag+" must be at most") {
				t.Errorf("%s %s: got %v, want an error naming the flag", flag, value, err)
			}
		}
		// The largest value that fits passes validation (and fails at listen).
		ok := strconv.FormatInt(math.MaxInt64>>20, 10)
		if err := run([]string{"-addr", "999.999.999.999:bad", flag, ok}); err == nil || strings.Contains(err.Error(), "must be") {
			t.Errorf("%s %s: got %v, want only the listen error", flag, ok, err)
		}
	}
}

// TestSlowClientIsDisconnected: a connection that never finishes its
// request line is closed by the server rather than held forever. The
// constants are pinned as built; the wait itself runs at a shortened
// ReadHeaderTimeout so the suite does not sleep ten seconds.
func TestSlowClientIsDisconnected(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout || readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts not set: readHeader %v idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("SSE streams and long uploads need unbounded bodies: write %v read %v", srv.WriteTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		<-done
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil { // ...and never the rest
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server answers a header timeout by closing (possibly after a 408):
	// reading to EOF before the deadline is the pass condition.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection still open after the header timeout: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
}
