package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nucleus/internal/graph"
)

// lockOrderWait bounds every wait of the lock-order tests: a request that
// needs a lock held elsewhere never answers, so these tests fail by it.
const lockOrderWait = 10 * time.Second

// send makes one request with the lock-order deadline, from any goroutine:
// it returns the status, or 0 if no answer came in time.
func send(method, url, body string) int {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0
	}
	resp, err := (&http.Client{Timeout: lockOrderWait}).Do(req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func editBody(u, v uint32) string {
	data, _ := json.Marshal(mutateRequest{Edits: []edgeOp{{Op: "add", U: u, V: v}}})
	return string(data)
}

// waitPublished waits until name is live above version, and returns the
// version it reached.
func waitPublished(t *testing.T, s *Server, name string, version uint64, what string) uint64 {
	t.Helper()
	for deadline := time.Now().Add(lockOrderWait); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if e, ok := s.reg.get(name); ok && e.version > version {
			return e.version
		}
	}
	t.Fatalf("%s never published", what)
	return 0
}

// TestBatchPublishesWhileWarmSeedBlocked holds warm seeding off the
// per-name mutation lock through the edit pipeline itself: while batch 1
// is blocked inside its warm seed, batch 2 on the same name must still
// publish. The test holds the result cache's mutex, which warmSeed takes
// first; a prior batch has set the maintained κ, so nothing before the
// publish reads the cache. Were warm seeding moved back under the
// mutation lock, batch 2 would queue behind graph-sized work (here:
// forever) and the test fails by its deadline.
func TestBatchPublishesWhileWarmSeedBlocked(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 2})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "plc", "n": 200, "k": 4, "seed": 9}, nil)
	if code := send("POST", ts.URL+"/graphs/g/edges", editBody(0, 199)); code != http.StatusOK {
		t.Fatalf("first batch: status %d", code)
	}
	v0 := waitPublished(t, s, "g", 0, "the first batch")

	s.cache.mu.Lock()
	var release sync.Once
	unblock := func() { release.Do(s.cache.mu.Unlock) }
	t.Cleanup(unblock)
	codes := make(chan int, 2)
	go func() { codes <- send("POST", ts.URL+"/graphs/g/edges", editBody(1, 198)) }()
	v1 := waitPublished(t, s, "g", v0, "batch 1")
	go func() { codes <- send("POST", ts.URL+"/graphs/g/edges", editBody(2, 197)) }()
	waitPublished(t, s, "g", v1, "batch 2, while batch 1 was blocked in its warm seed,")
	unblock()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("batch: status %d", code)
		}
	}
}

// TestRegistryAnswersWhileStoreBlocked blocks each store call in turn
// inside one graph's write, under that graph's mutation lock, and requires
// every registry route to answer meanwhile: the graph list, another
// graph, /stats, /metrics, a cache hit and a write to another graph. A
// store call made under the registry's lock (or any lock those routes
// take) would hold them all behind the disk.
func TestRegistryAnswersWhileStoreBlocked(t *testing.T) {
	k5 := edgeListBody(graph.Complete(5))
	for _, tc := range []struct {
		call               string
		method, path, body string
		arm                func(fs *faultStore, hook func(string) error)
	}{
		{"SaveSnapshot", "POST", "/graphs/a", k5, func(fs *faultStore, h func(string) error) { fs.saveSnapshot = h }},
		{"BeginBatch", "POST", "/graphs/a/edges", editBody(0, 5), func(fs *faultStore, h func(string) error) { fs.beginBatch = h }},
		{"CommitBatch", "POST", "/graphs/a/edges", editBody(0, 5), func(fs *faultStore, h func(string) error) { fs.commitBatch = h }},
		{"Delete", "DELETE", "/graphs/a", "", func(fs *faultStore, h func(string) error) { fs.delete = h }},
	} {
		t.Run(tc.call, func(t *testing.T) {
			fs := &faultStore{Store: openFS(t, t.TempDir())}
			ts, _ := testServerWith(t, Config{Workers: 2, Store: fs})
			for _, name := range []string{"a", "b"} {
				if code := send("POST", ts.URL+"/graphs/"+name, k5); code != http.StatusCreated {
					t.Fatalf("upload %s: status %d", name, code)
				}
			}
			job := `{"graph":"b","decomposition":"core"}`
			var jv jobView
			postJSON(t, ts.URL+"/jobs", json.RawMessage(job), &jv)
			waitForJob(t, ts.URL, jv.ID)

			entered, release := make(chan struct{}), make(chan struct{})
			var once, releaseOnce sync.Once
			t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
			tc.arm(fs, func(name string) error {
				if name == "a" {
					once.Do(func() { close(entered); <-release })
				}
				return nil
			})
			blocked := make(chan int, 1)
			go func() { blocked <- send(tc.method, ts.URL+tc.path, tc.body) }()
			select {
			case <-entered:
			case <-time.After(lockOrderWait):
				t.Fatalf("the write on a never reached %s", tc.call)
			}

			for _, r := range []struct{ method, path, body string }{
				{"GET", "/graphs", ""},
				{"GET", "/graphs/b", ""},
				{"GET", "/stats", ""},
				{"GET", "/metrics", ""},
				{"POST", "/graphs/b/edges", editBody(0, 6)},
			} {
				if code := send(r.method, ts.URL+r.path, r.body); code != http.StatusOK {
					t.Fatalf("%s %s while %s on a is blocked: status %d (0: no answer in %v)", r.method, r.path, tc.call, code, lockOrderWait)
				}
			}
			// A cache hit: the core result the job above left, carried to
			// the batch's version by its warm seed.
			resp, err := (&http.Client{Timeout: lockOrderWait}).Post(ts.URL+"/jobs", "application/json", strings.NewReader(job))
			if err != nil {
				t.Fatalf("POST /jobs while %s on a is blocked: %v", tc.call, err)
			}
			var hit jobView
			err = json.NewDecoder(resp.Body).Decode(&hit)
			resp.Body.Close()
			if err != nil || !hit.Cached {
				t.Fatalf("POST /jobs while %s on a is blocked: %+v (%v), want a cache hit", tc.call, hit, err)
			}

			releaseOnce.Do(func() { close(release) })
			if code := <-blocked; code < 200 || code > 299 {
				t.Fatalf("the blocked write on a: status %d", code)
			}
		})
	}
}
