package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"testing"
	"time"

	"nucleus/internal/nucleus"
)

// getBody reads one 200 response whole and holds it to its Content-Length.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("GET %s: Content-Length %q on a body of %d bytes", url, cl, len(body))
	}
	return body
}

func plantedServer(t *testing.T, cfg Config) (string, *Server) {
	t.Helper()
	ts, s := testServerWith(t, cfg)
	postJSON(t, ts.URL+"/graphs/g/generate",
		map[string]any{"generator": "planted", "communities": 6, "size": 16, "p": 0.6, "interEdges": 40, "seed": 5}, nil)
	return ts.URL, s
}

// TestForestDerivedOncePerVersion: the forest belongs to the cached κ it
// was derived from. Reads of one version after the first build nothing and
// copy the same bytes, /nuclei reads the same forest, a published batch
// costs exactly one build on its next read, and the old version's forest
// went with its cache entry. Every read is still one resolved lookup.
func TestForestDerivedOncePerVersion(t *testing.T) {
	url, s := plantedServer(t, Config{})
	builds := func() int64 { return s.stats.Cache.ForestBuilds.Load() }

	first := getBody(t, url+"/graphs/g/hierarchy?dec=truss")
	if builds() != 1 {
		t.Fatalf("first read: %d forest builds, want 1", builds())
	}
	if again := getBody(t, url+"/graphs/g/hierarchy?dec=truss"); !bytes.Equal(first, again) || builds() != 1 {
		t.Fatalf("second read of the version: %d builds, same bytes %v", builds(), bytes.Equal(first, again))
	}
	var nr nucleiResponse
	doJSON(t, "GET", url+"/graphs/g/nuclei?dec=truss&k=2", nil, &nr)
	if len(nr.Nuclei) == 0 || builds() != 1 {
		t.Fatalf("/nuclei after /hierarchy: %d nuclei, %d builds", len(nr.Nuclei), builds())
	}

	old, _ := s.reg.get("g")
	oldMemo := s.convergedResult(old, nucleus.FamilyTruss).hier
	postJSON(t, url+"/graphs/g/edges", map[string]any{"edits": []map[string]any{{"op": "add", "u": 0, "v": 95}}}, nil)
	if builds() != 1 {
		t.Fatalf("a write derived a forest: %d builds", builds())
	}
	next := getBody(t, url+"/graphs/g/hierarchy?dec=truss")
	if builds() != 2 || bytes.Equal(first, next) {
		t.Fatalf("first read of the new version: %d builds, want 2 (new edge visible: %v)", builds(), !bytes.Equal(first, next))
	}
	s.cache.mu.Lock()
	for key, el := range s.cache.items {
		if key.version == old.version || el.Value.(*lruEntry).val.hier == oldMemo {
			t.Errorf("version %d's forest is still reachable under %+v", old.version, key)
		}
	}
	s.cache.mu.Unlock()

	st := getStats(t, url)
	if st.Cache.Lookups != 4 || st.Cache.Hits.Load()+st.Cache.Misses.Load() != 4 {
		t.Fatalf("4 reads sent: %s", jsonString(&st.Cache))
	}
}

// TestForestSingleFlightUnderSyncSlot: with κ cached, concurrent first
// reads of a version used to run one graph-sized build each, outside the
// synchronous-work bound. Now one of them builds, holding a slot, and all
// of them answer its bytes.
func TestForestSingleFlightUnderSyncSlot(t *testing.T) {
	url, s := plantedServer(t, Config{Workers: 2})
	var jv jobView
	postJSON(t, url+"/jobs", map[string]any{"graph": "g", "decomposition": "truss"}, &jv)
	waitForJob(t, url, jv.ID)

	// Every slot taken: the build may not start.
	s.acquireSync()
	s.acquireSync()
	const readers = 8
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[i] = getBody(t, url+"/graphs/g/hierarchy?dec=truss")
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if n := s.stats.Cache.ForestBuilds.Load(); n != 0 {
		t.Errorf("%d forest builds ran without a synchronous-work slot", n)
	}
	s.releaseSync()
	s.releaseSync()
	wg.Wait()

	if n := s.stats.Cache.ForestBuilds.Load(); n != 1 {
		t.Fatalf("%d concurrent first reads ran %d forest builds, want 1", readers, n)
	}
	for i, b := range bodies {
		if len(b) == 0 || !bytes.Equal(b, bodies[0]) {
			t.Fatalf("reader %d got %d bytes, reader 0 got %d: not the same body", i, len(b), len(bodies[0]))
		}
	}
}
