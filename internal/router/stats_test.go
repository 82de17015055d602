package router

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"nucleus/internal/promtext"
)

// twoNodeRouter is a router over one group of two nodes that are never
// contacted: /stats and /metrics report the configured topology.
func twoNodeRouter(t *testing.T) *Router {
	t.Helper()
	rt, err := New(Config{Groups: []GroupConfig{{Name: "g0", Primary: "http://127.0.0.1:7171", Replicas: []string{"http://127.0.0.1:7172"}}}})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func scrape(t *testing.T, rt *Router, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
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

// metricsFamilies parses a /metrics body, which holds it to the
// exposition format's grouping rules.
func metricsFamilies(t *testing.T, exposition []byte) []promtext.Family {
	t.Helper()
	fams, err := promtext.Parse(exposition)
	if err != nil {
		t.Fatalf("/metrics breaks the exposition format: %v\n%s", err, exposition)
	}
	return fams
}

// TestStatsCompatibilityGoldens pins the /stats body and the /metrics
// family list (name, type, help) across the move of the counters into
// the stats document: both are what PR 16 produced.
func TestStatsCompatibilityGoldens(t *testing.T) {
	rt := twoNodeRouter(t)
	checkGolden(t, "stats_fresh.golden", scrape(t, rt, "/stats"))
	var lines []string
	for _, f := range metricsFamilies(t, scrape(t, rt, "/metrics")) {
		lines = append(lines, fmt.Sprintf("%s %s %s\n", f.Name, f.Type, f.Help))
	}
	slices.Sort(lines)
	checkGolden(t, "metrics_families.golden", []byte(strings.Join(lines, "")))
}

var scrapeNoise = regexp.MustCompile(`(?m)^(nucleusrouter_(?:uptime_seconds|requests_total)) .*$`)

// TestMetricsExpositionFormat is the regression test for interleaved
// families: with two nodes in a group — every fleet — the per-node loop
// used to emit its three families in pieces, which the text format
// forbids and a scraper rejects. And the body is a pure function of the
// router's state: two scrapes differ only in uptime and in the request
// count the scrapes themselves move.
func TestMetricsExpositionFormat(t *testing.T) {
	rt := twoNodeRouter(t)
	first := scrape(t, rt, "/metrics")
	fams := metricsFamilies(t, first)
	i := slices.IndexFunc(fams, func(f promtext.Family) bool { return f.Name == "nucleusrouter_node_healthy" })
	if i < 0 || len(fams[i].Samples) != 2 || fams[i].Samples[0].Labels != `{group="g0",node="g0-p0"}` || fams[i].Samples[1].Labels != `{group="g0",node="g0-r0"}` {
		t.Fatalf("per-node family: %+v", fams)
	}
	second := scrape(t, rt, "/metrics")
	if a, b := scrapeNoise.ReplaceAll(first, []byte("$1")), scrapeNoise.ReplaceAll(second, []byte("$1")); string(a) != string(b) {
		t.Errorf("two scrapes of a quiescent router differ:\n%s\n---\n%s", a, b)
	}
}

// TestEveryStatsLeafHasASeries is the drift gate between /stats and
// /metrics: a number or bool in the document has a series by carrying a
// prom tag, or a reason here not to.
func TestEveryStatsLeafHasASeries(t *testing.T) {
	const labeled = "groups.*." // generation, healthy, role and maxVersion: the four families labeled by group and node in handleMetrics
	series := map[string]string{}
	for _, l := range promtext.Leaves(&routerStats{}) {
		excused := strings.HasPrefix(l.Path, labeled)
		switch {
		case l.Series == "" && !excused:
			t.Errorf("/stats leaf %s has no prom tag and no reason in this test", l.Path)
		case l.Series != "" && l.Help == "":
			t.Errorf("series %s (%s) has no help tag", l.Series, l.Path)
		case l.Series != "" && series[l.Series] != "":
			t.Errorf("series %s is declared by both %s and %s", l.Series, series[l.Series], l.Path)
		}
		series[l.Series] = l.Path
	}
	if len(series) < 12 {
		t.Errorf("walked only %d series", len(series))
	}
}
