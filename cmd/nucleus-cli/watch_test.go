package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	root "nucleus"
)

// watchServer spins a nucleusd instance with an uploaded path graph (a
// slow-converging SND fixture) behind httptest.
func watchServer(t *testing.T, n int) *httptest.Server {
	t.Helper()
	srv := root.NewServer(root.ServerConfig{Workers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	var sb strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	resp, err := http.Post(ts.URL+"/graphs/p", "text/plain", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	return ts
}

func TestWatchSubmitAndFollow(t *testing.T) {
	ts := watchServer(t, 801)
	var sb strings.Builder
	if err := run([]string{"watch", "-server", ts.URL, "-graph", "p", "-dec", "core", "-alg", "snd"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "submitted job ") {
		t.Fatalf("missing submit line: %q", out)
	}
	if !strings.Contains(out, "job done") || !strings.Contains(out, "exact (tau = kappa certified)") {
		t.Fatalf("missing terminal summary: %q", out)
	}
	// The path graph's max τ is 2 until the endpoint influence meets in
	// the middle; the exact max core number is 1.
	if !strings.Contains(out, "max-tau 1,") {
		t.Fatalf("final max-tau not 1: %q", out)
	}
}

func TestWatchExistingJobAndErrors(t *testing.T) {
	ts := watchServer(t, 801)
	// Unknown job id surfaces the server error.
	if err := run([]string{"watch", "-server", ts.URL, "-job", "zzz"}, &strings.Builder{}); err == nil {
		t.Fatal("watching an unknown job succeeded")
	}
	// -job and -graph are mutually exclusive (and one is required).
	if err := run([]string{"watch", "-server", ts.URL}, &strings.Builder{}); err == nil {
		t.Fatal("watch without -job/-graph succeeded")
	}
}

func TestWatchServerUnreachable(t *testing.T) {
	// A server that no longer exists: the URL is valid but nothing
	// listens behind it, for both the attach and the submit paths.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if err := run([]string{"watch", "-server", dead.URL, "-job", "j1"}, &strings.Builder{}); err == nil {
		t.Fatal("watching via a dead server succeeded")
	}
	if err := run([]string{"watch", "-server", dead.URL, "-graph", "p"}, &strings.Builder{}); err == nil {
		t.Fatal("submitting via a dead server succeeded")
	}
}

func TestWatchSubmitUnknownGraph(t *testing.T) {
	ts := watchServer(t, 801)
	err := run([]string{"watch", "-server", ts.URL, "-graph", "no-such-graph"}, &strings.Builder{})
	if err == nil {
		t.Fatal("submitting a job on an unknown graph succeeded")
	}
	if !strings.Contains(err.Error(), "submitting job") {
		t.Fatalf("error does not name the submit step: %v", err)
	}
}

// TestWatchSubmitSpellings: watch takes the -dec and -alg spellings the
// one-shot command takes, and rejects any other before it sends anything.
func TestWatchSubmitSpellings(t *testing.T) {
	ts := watchServer(t, 41)
	for _, args := range [][]string{{"-dec", "n34", "-alg", "peel"}, {"-dec", "12", "-alg", ""}, {"-dec", "ktruss", "-alg", "snd"}} {
		var sb strings.Builder
		if err := run(append([]string{"watch", "-server", ts.URL, "-graph", "p"}, args...), &sb); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(sb.String(), "job done") {
			t.Fatalf("%v: no terminal summary: %q", args, sb.String())
		}
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	for flag, want := range map[string]string{"-dec": "unknown decomposition", "-alg": "unknown algorithm"} {
		err := run([]string{"watch", "-server", dead.URL, "-graph", "p", flag, "bogus"}, &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s bogus: %v, want %q before any request", flag, err, want)
		}
	}
}

// sseServer serves a canned byte stream on /jobs/j1/stream, so the
// mid-run failure modes (connection cut before the done event, malformed
// event payloads) are reproducible without racing a real job.
func sseServer(t *testing.T, body string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/jobs/j1/stream" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestWatchStreamClosedMidRun(t *testing.T) {
	// Two progress events, then the server ends the stream without ever
	// sending a done event (crash, restart, proxy timeout): the command
	// must fail rather than report a silently truncated run.
	ts := sseServer(t,
		"event: progress\ndata: {\"sweep\":1,\"maxTau\":3}\n\n"+
			"event: progress\ndata: {\"sweep\":2,\"maxTau\":2}\n\n")
	var sb strings.Builder
	err := run([]string{"watch", "-server", ts.URL, "-job", "j1"}, &sb)
	if err == nil {
		t.Fatal("truncated stream reported success")
	}
	if !strings.Contains(err.Error(), "stream ended without a done event") {
		t.Fatalf("unexpected error for truncated stream: %v", err)
	}
	// The sweeps seen before the cut were still rendered.
	if !strings.Contains(sb.String(), "sweep    1") || !strings.Contains(sb.String(), "sweep    2") {
		t.Fatalf("progress before the cut not printed: %q", sb.String())
	}
}

func TestWatchMalformedEvents(t *testing.T) {
	badProgress := sseServer(t, "event: progress\ndata: {not json}\n\n")
	if err := run([]string{"watch", "-server", badProgress.URL, "-job", "j1"}, &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "bad progress event") {
		t.Fatalf("malformed progress event not rejected: %v", err)
	}

	badDone := sseServer(t, "event: done\ndata: {not json}\n\n")
	if err := run([]string{"watch", "-server", badDone.URL, "-job", "j1"}, &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "bad done event") {
		t.Fatalf("malformed done event not rejected: %v", err)
	}
}

func TestWatchFailedJobDoneEvent(t *testing.T) {
	// A done event in a non-done state must fail the command so scripted
	// callers do not mistake a cancelled or failed job for success.
	ts := sseServer(t, "event: done\ndata: {\"state\":\"failed\",\"error\":\"graph evicted\"}\n\n")
	err := run([]string{"watch", "-server", ts.URL, "-job", "j1"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "graph evicted") {
		t.Fatalf("failed job not surfaced: %v", err)
	}
}
