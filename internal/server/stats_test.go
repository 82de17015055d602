package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"nucleus/internal/promtext"
)

// scrape serves one GET through the full handler (so it counts as a
// request, like a real scrape) and returns the body.
func scrape(t *testing.T, s *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

var uptimeJSON = regexp.MustCompile(`("uptimeSeconds": ?)[0-9.e+-]+`)

// checkGolden compares got with testdata/<name>, the body the parent of
// the one-stats-document change (PR 17) produced for the same requests.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got := uptimeJSON.ReplaceAll(got, []byte("${1}0")); string(got) != string(want) {
		t.Errorf("%s drifted:\n got: %s\nwant: %s", name, got, want)
	}
}

// familyLines renders an exposition's families as "name type help"
// lines, sorted: the part of /metrics that is API.
func familyLines(t *testing.T, exposition []byte) []byte {
	t.Helper()
	fams, err := promtext.Parse(exposition)
	if err != nil {
		t.Fatalf("/metrics breaks the exposition format: %v\n%s", err, exposition)
	}
	var lines []string
	for _, f := range fams {
		lines = append(lines, fmt.Sprintf("%s %s %s\n", f.Name, f.Type, f.Help))
	}
	slices.Sort(lines)
	return []byte(strings.Join(lines, ""))
}

// runJobAs submits one core job under a tenant and waits for it.
func runJobAs(t *testing.T, base, graphName, tenant string) {
	t.Helper()
	jv, resp := submitTenantJob(t, base, tenant, 0, jobRequest{Graph: graphName, Decomposition: "core"})
	if resp.StatusCode/100 != 2 {
		t.Fatalf("POST /jobs as %s: status %d", tenant, resp.StatusCode)
	}
	waitForJob(t, base, jv.ID)
}

// TestStatsCompatibilityGoldens pins the three JSON bodies and the
// /metrics family list across the move of the counters into the stats
// document: a fresh process answers byte for byte what PR 16 answered
// (uptime masked), and the families are PR 16's 59 plus the six series
// the derivation added for leaves that had none (cache capacity and the
// cost model). The help texts of warm_runs, warm_sweeps and sweeps_saved
// were reworded when the core seed stopped sweeping (PR 19);
// cache.forestBuilds and its series came with the forest memo.
func TestStatsCompatibilityGoldens(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	checkGolden(t, "stats_fresh.golden", scrape(t, s, "/stats"))
	checkGolden(t, "replication_status_fresh.golden", scrape(t, s, "/replication/status"))

	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "gnm", "n": 30, "m": 90, "seed": 1}, nil)
	runJobAs(t, ts.URL, "g", "alpha")
	checkGolden(t, "metrics_families.golden", familyLines(t, scrape(t, s, "/metrics")))
}

var scrapeNoise = regexp.MustCompile(`(?m)^(nucleusd_(?:uptime_seconds|requests_total)) .*$`)

// TestMetricsExpositionFormat is the regression test for interleaved
// families: with two tenants the per-tenant loop used to emit each of its
// six families in pieces, in map order, which the text format forbids
// and a scraper rejects. promtext.Parse holds the body to one contiguous
// HELP/TYPE group per family with ascending label sets; and the body of a
// quiescent server is a pure function of its state — two scrapes differ
// only in uptime and in the request count the scrapes themselves move.
func TestMetricsExpositionFormat(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "gnm", "n": 30, "m": 90, "seed": 1}, nil)
	postJSON(t, ts.URL+"/graphs/h/generate", map[string]any{"generator": "gnm", "n": 30, "m": 90, "seed": 2}, nil)
	runJobAs(t, ts.URL, "g", "beta")
	runJobAs(t, ts.URL, "h", "alpha") // a second graph: a cache hit would not be admitted at all

	first := scrape(t, s, "/metrics")
	fams, err := promtext.Parse(first)
	if err != nil {
		t.Fatalf("/metrics breaks the exposition format: %v\n%s", err, first)
	}
	i := slices.IndexFunc(fams, func(f promtext.Family) bool { return f.Name == "nucleusd_tenant_admitted_total" })
	if i < 0 || len(fams[i].Samples) != 2 || fams[i].Samples[0].Labels != `{tenant="alpha"}` || fams[i].Samples[1].Labels != `{tenant="beta"}` {
		t.Fatalf("per-tenant family: %+v", fams)
	}
	second := scrape(t, s, "/metrics")
	if a, b := scrapeNoise.ReplaceAll(first, []byte("$1")), scrapeNoise.ReplaceAll(second, []byte("$1")); string(a) != string(b) {
		t.Errorf("two scrapes of a quiescent server differ:\n%s\n---\n%s", a, b)
	}
}

// TestEveryStatsLeafHasASeries is the drift gate between /stats and
// /metrics: a number or bool in the document has a series by carrying a
// prom tag, or a reason here not to.
func TestEveryStatsLeafHasASeries(t *testing.T) {
	untagged := []string{
		"cache.lookups",          // hits + misses, both exported
		"scheduler.perTenant.*.", // the six nucleusd_tenant_* families, labeled by tenant in handleMetrics
	}
	series := map[string]string{}
	for _, l := range promtext.Leaves(&statsResponse{}) {
		excused := slices.ContainsFunc(untagged, func(prefix string) bool { return strings.HasPrefix(l.Path, prefix) })
		switch {
		case l.Series == "" && !excused:
			t.Errorf("/stats leaf %s has no prom tag and no reason in this test", l.Path)
		case l.Series != "" && excused:
			t.Errorf("/stats leaf %s is tagged %s and excused; drop the reason", l.Path, l.Series)
		case l.Series != "" && l.Help == "":
			t.Errorf("series %s (%s) has no help tag", l.Series, l.Path)
		case l.Series != "" && series[l.Series] != "":
			t.Errorf("series %s is declared by both %s and %s", l.Series, series[l.Series], l.Path)
		}
		series[l.Series] = l.Path
	}
	// The drift this gate was written against: leaves /stats had and
	// /metrics lacked.
	for _, name := range []string{
		"nucleusd_cache_capacity", "nucleusd_sched_cost_model_entries", "nucleusd_sched_cost_model_mean_abs_err_pct",
		"nucleusd_sched_cost_model_hits_total", "nucleusd_sched_cost_model_misses_total", "nucleusd_sched_cost_model_observations_total",
	} {
		if series[name] == "" {
			t.Errorf("series %s is gone", name)
		}
	}
}

// statsPath reads the number at one dotted path of a /stats body decoded
// into an any.
func statsPath(t *testing.T, v any, path string) float64 {
	t.Helper()
	for _, key := range strings.Split(path, ".") {
		v = v.(map[string]any)[key]
	}
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		return promtext.Bool(x)
	}
	t.Fatalf("/stats has no number at %s: %v", path, v)
	return 0
}

// TestStatsOneBodyOneSnapshot drives hits, misses and mutation batches
// while other goroutines read /stats and /metrics (run it under -race).
// Every body must be one consistent snapshot — lookups is the sum of the
// hits and misses shown beside it, although the counters now marshal
// themselves — every counter is monotone from one body to the next, and
// once the server is quiescent every tagged leaf of /stats equals its
// /metrics sample.
func TestStatsOneBodyOneSnapshot(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 2, CacheSize: 2})
	for _, name := range []string{"a", "b", "c"} {
		postJSON(t, ts.URL+"/graphs/"+name+"/generate", map[string]any{"generator": "gnm", "n": 40, "m": 120, "seed": 1}, nil)
	}
	var counters []promtext.Leaf
	for _, l := range promtext.Leaves(&statsResponse{}) {
		if strings.HasSuffix(l.Series, "_total") {
			counters = append(counters, l)
		}
	}

	var drivers, readers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 3; w++ {
		drivers.Add(1)
		go func() {
			defer drivers.Done()
			for i := 0; i < 40; i++ {
				name := string(rune('a' + (i+w)%3)) // three graphs over two cache slots: hits and misses
				if resp, err := http.Get(ts.URL + "/graphs/" + name + "/decompose?dec=core&alg=and"); err != nil {
					t.Error(err)
				} else {
					resp.Body.Close()
				}
				if i%4 == 0 {
					body := fmt.Sprintf(`{"edits":[{"op":"add","u":%d,"v":%d}]}`, i%40, (i+7+w)%40)
					if resp, err := http.Post(ts.URL+"/graphs/"+name+"/edges", "application/json", strings.NewReader(body)); err != nil {
						t.Error(err)
					} else {
						resp.Body.Close()
					}
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := map[string]float64{}
			for {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
				body := rec.Body.Bytes()
				var st statsResponse
				var doc any
				if err := errors.Join(json.Unmarshal(body, &st), json.Unmarshal(body, &doc)); err != nil {
					t.Error(err)
					return
				}
				if st.Cache.Lookups != st.Cache.Hits.Load()+st.Cache.Misses.Load() {
					t.Errorf("one body, two snapshots: %s", jsonString(&st.Cache))
				}
				for _, c := range counters {
					v := statsPath(t, doc, c.Path)
					if v < last[c.Path] {
						t.Errorf("%s went from %v to %v", c.Path, last[c.Path], v)
					}
					last[c.Path] = v
				}
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if _, err := promtext.Parse(rec.Body.Bytes()); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	drivers.Wait()
	close(done)
	readers.Wait()

	// Quiescent: /metrics first, so the one request between the two reads
	// is the only difference, and it is accounted for.
	fams, err := promtext.Parse(scrape(t, s, "/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(scrape(t, s, "/stats"), &doc); err != nil {
		t.Fatal(err)
	}
	sample := map[string]float64{}
	for _, f := range fams {
		if len(f.Samples) == 1 && f.Samples[0].Labels == "" {
			sample[f.Name] = f.Samples[0].Value
		}
	}
	sample["nucleusd_requests_total"]++
	checked := 0
	for _, l := range promtext.Leaves(&statsResponse{}) {
		if l.Series == "" || l.Series == "nucleusd_uptime_seconds" {
			continue
		}
		got, ok := sample[l.Series]
		if want := statsPath(t, doc, l.Path); !ok || got != want {
			t.Errorf("%s: /metrics says %v (present %v), /stats %s says %v", l.Series, got, ok, l.Path, want)
		}
		checked++
	}
	if st := getStats(t, ts.URL); checked < 50 || st.Cache.Hits.Load() == 0 || st.Cache.Misses.Load() == 0 || st.Mutations.Batches.Load() == 0 {
		t.Errorf("the test drove too little: %d leaves compared, cache %s, mutations %s", checked, jsonString(&st.Cache), jsonString(&st.Mutations))
	}
}
