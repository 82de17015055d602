package server

import (
	"net/http"
	"runtime"
	"testing"
)

// TestPeelJobHonorsThreads is the regression test for peel jobs dropping
// the request's threads parameter: the effective worker count must be
// resolved at submit time, be handed to peel.RunThreads, and be surfaced
// in the job status — for explicit requests, the server default, and
// host-clamped values alike.
func TestPeelJobHonorsThreads(t *testing.T) {
	ts := testServer(t, Config{JobThreads: 2})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 8}, nil)

	maxProcs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name      string
		requested int
		want      int
	}{
		{"explicit", 2, minInt(2, maxProcs)},
		{"default", 0, 2}, // server JobThreads; not host-clamped (admin-set)
		{"hostClamped", maxProcs + 7, maxProcs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var jv jobView
			resp := postJSON(t, ts.URL+"/jobs", map[string]any{
				"graph": "g", "decomposition": "truss", "algorithm": "peel", "threads": tc.requested,
			}, &jv)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d", resp.StatusCode)
			}
			if jv.Threads != tc.want {
				t.Fatalf("submitted job threads = %d, want %d", jv.Threads, tc.want)
			}
			done := waitForJob(t, ts.URL, jv.ID)
			if done.State != JobDone || !done.Converged {
				t.Fatalf("job ended %s (converged=%v)", done.State, done.Converged)
			}
			if done.Threads != tc.want {
				t.Fatalf("finished job threads = %d, want %d", done.Threads, tc.want)
			}
			// K8 truss: every edge is in 6 triangles, κ = 6 throughout.
			if done.MaxKappa != 6 || done.Cells != 28 {
				t.Fatalf("K8 truss peel: maxKappa %d cells %d, want 6 and 28", done.MaxKappa, done.Cells)
			}
		})
	}
}

// TestLocalJobSurfacesThreads covers the non-peel path: the same effective
// value must appear for the local algorithms, including on cache-hit jobs
// (the value the run would use on a miss).
func TestLocalJobSurfacesThreads(t *testing.T) {
	ts := testServer(t, Config{JobThreads: 1})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 6}, nil)

	want := minInt(2, runtime.GOMAXPROCS(0))
	var jv jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{
		"graph": "g", "decomposition": "core", "algorithm": "and", "threads": 2,
	}, &jv)
	if jv.Threads != want {
		t.Fatalf("threads = %d, want %d", jv.Threads, want)
	}
	waitForJob(t, ts.URL, jv.ID)

	// Same key again: a cache-hit job still reports its resolved threads.
	var hit jobView
	postJSON(t, ts.URL+"/jobs", map[string]any{
		"graph": "g", "decomposition": "core", "algorithm": "and", "threads": 2,
	}, &hit)
	if hit.State != JobDone || !hit.Cached {
		t.Fatalf("expected cache-hit job, got state=%s cached=%v", hit.State, hit.Cached)
	}
	if hit.Threads != want {
		t.Fatalf("cache-hit threads = %d, want %d", hit.Threads, want)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
