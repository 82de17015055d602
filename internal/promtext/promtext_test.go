package promtext

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestWriterFormat(t *testing.T) {
	var w Writer
	w.Counter("app_requests_total", "Requests served.", 42)
	w.Gauge("app_queue_depth", "Jobs queued.", 3)
	w.LabeledCounter("app_tenant_jobs_total", "Per-tenant jobs.",
		map[string]string{"tenant": "alpha"}, 7)
	w.LabeledCounter("app_tenant_jobs_total", "Per-tenant jobs.",
		map[string]string{"tenant": "beta"}, 9)

	got := string(w.Bytes())
	want := strings.Join([]string{
		"# HELP app_requests_total Requests served.",
		"# TYPE app_requests_total counter",
		"app_requests_total 42",
		"# HELP app_queue_depth Jobs queued.",
		"# TYPE app_queue_depth gauge",
		"app_queue_depth 3",
		"# HELP app_tenant_jobs_total Per-tenant jobs.",
		"# TYPE app_tenant_jobs_total counter",
		`app_tenant_jobs_total{tenant="alpha"} 7`,
		`app_tenant_jobs_total{tenant="beta"} 9`,
		"",
	}, "\n")
	if got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriterSortsLabels(t *testing.T) {
	var w Writer
	w.LabeledGauge("m", "h", map[string]string{"b": "2", "a": "1"}, 1)
	got := string(w.Bytes())
	if !strings.Contains(got, `m{a="1",b="2"} 1`) {
		t.Errorf("labels not sorted: %q", got)
	}
}

func TestWriterEscapesLabelValues(t *testing.T) {
	var w Writer
	w.LabeledGauge("m", "h", map[string]string{"p": "a\\b\"c\nd"}, 1)
	got := string(w.Bytes())
	if !strings.Contains(got, `m{p="a\\b\"c\nd"} 1`) {
		t.Errorf("label value not escaped: %q", got)
	}
}

// TestWriterGroupsInterleavedFamilies is the exposition-format
// regression: per-tenant and per-node loops emit one sample of each
// family per iteration, in map order; the output must still be one
// contiguous, label-sorted group per family.
func TestWriterGroupsInterleavedFamilies(t *testing.T) {
	var w Writer
	for _, tenant := range []string{"beta", "alpha"} {
		l := map[string]string{"tenant": tenant}
		w.LabeledCounter("app_admitted_total", "Admitted.", l, 1)
		w.LabeledGauge("app_queued", "Queued.", l, 2)
	}
	want := strings.Join([]string{
		"# HELP app_admitted_total Admitted.",
		"# TYPE app_admitted_total counter",
		`app_admitted_total{tenant="alpha"} 1`,
		`app_admitted_total{tenant="beta"} 1`,
		"# HELP app_queued Queued.",
		"# TYPE app_queued gauge",
		`app_queued{tenant="alpha"} 2`,
		`app_queued{tenant="beta"} 2`,
		"",
	}, "\n")
	if got := string(w.Bytes()); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if _, err := Parse(w.Bytes()); err != nil {
		t.Errorf("Parse rejects the Writer's own output: %v", err)
	}
}

// walkDoc is a stats document with one field of every shape the walk
// distinguishes.
type walkDoc struct {
	Events  Counter `json:"events" prom:"app_events_total" help:"Events seen."`
	Depth   int     `json:"depth" prom:"app_depth" help:"Queue depth."`
	Ratio   float64 `json:"ratio" prom:"app_ratio" help:"A ratio."`
	Enabled bool    `json:"enabled" prom:"app_enabled" help:"1 when on."`
	Section struct {
		Gen    uint64         `json:"gen" prom:"app_section_gen" help:"Nested."`
		Total  int64          `json:"total" prom:"app_section_things_total" help:"A plain integer counted as a counter by its name."`
		Note   string         `json:"note"`
		Tenant map[string]int `json:"tenant"`
	} `json:"section"`
	walkEmbedded
	Untagged int64 `json:"untagged"`
	Hidden   int   `json:"-" prom:"app_hidden" help:"A series /stats does not show."`
	Dropped  int   `json:"-"`
}

type walkEmbedded struct {
	Lag float64 `json:"lag" prom:"app_lag_ms" help:"Embedded."`
}

func TestStructWalk(t *testing.T) {
	var doc walkDoc
	doc.Events.Add(3)
	doc.Depth, doc.Ratio, doc.Enabled = 4, 0.5, true
	doc.Section.Gen, doc.Section.Total = 7, 9
	doc.Lag, doc.Untagged, doc.Hidden = 1.5, 99, 2

	var w Writer
	w.Struct(&doc)
	fams, err := Parse(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []Family{
		{"app_events_total", "counter", "Events seen.", []Sample{{"", 3}}},
		{"app_depth", "gauge", "Queue depth.", []Sample{{"", 4}}},
		{"app_ratio", "gauge", "A ratio.", []Sample{{"", 0.5}}},
		{"app_enabled", "gauge", "1 when on.", []Sample{{"", 1}}},
		{"app_section_gen", "gauge", "Nested.", []Sample{{"", 7}}},
		{"app_section_things_total", "counter", "A plain integer counted as a counter by its name.", []Sample{{"", 9}}},
		{"app_lag_ms", "gauge", "Embedded.", []Sample{{"", 1.5}}},
		{"app_hidden", "gauge", "A series /stats does not show.", []Sample{{"", 2}}},
	}
	if !reflect.DeepEqual(fams, want) {
		t.Errorf("walk:\n got %+v\nwant %+v", fams, want)
	}

	wantLeaves := []Leaf{
		{"events", "app_events_total", "Events seen."},
		{"depth", "app_depth", "Queue depth."},
		{"ratio", "app_ratio", "A ratio."},
		{"enabled", "app_enabled", "1 when on."},
		{"section.gen", "app_section_gen", "Nested."},
		{"section.total", "app_section_things_total", "A plain integer counted as a counter by its name."},
		{"section.tenant.*", "", ""},
		{"lag", "app_lag_ms", "Embedded."},
		{"untagged", "", ""},
		{"-", "app_hidden", "A series /stats does not show."},
	}
	if got := Leaves(&doc); !reflect.DeepEqual(got, wantLeaves) {
		t.Errorf("leaves:\n got %+v\nwant %+v", got, wantLeaves)
	}
}

// TestCounter holds the Counter to what the hot paths and the /stats
// body rely on: Add allocates nothing, the JSON form is a bare number
// both ways, and a Snapshot carries counters and nothing else.
func TestCounter(t *testing.T) {
	var doc walkDoc
	if allocs := testing.AllocsPerRun(100, func() { doc.Events.Add(1) }); allocs != 0 {
		t.Errorf("Counter.Add allocates %v times per call", allocs)
	}
	doc.Depth = 5
	snap := Snapshot(&doc)
	if snap.Events.Load() != doc.Events.Load() || snap.Depth != 0 {
		t.Errorf("snapshot: events %d (live %d), depth %d; want the counter copied and the gauge left zero",
			snap.Events.Load(), doc.Events.Load(), snap.Depth)
	}
	doc.Events.Add(1)
	if snap.Events.Load() == doc.Events.Load() {
		t.Error("snapshot counter follows the live one")
	}

	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(body), `{"events":101,"depth":0,`) {
		t.Errorf("JSON body %s", body)
	}
	var back walkDoc
	if err := json.Unmarshal(body, &back); err != nil || back.Events.Load() != 101 {
		t.Errorf("decoded events %d (err %v), want 101", back.Events.Load(), err)
	}
}

func TestParseRejectsBrokenGrouping(t *testing.T) {
	head := func(name string) string { return "# HELP " + name + " h\n# TYPE " + name + " gauge\n" }
	for name, body := range map[string]string{
		"interleaved families": head("a") + `a{t="x"} 1` + "\n" + head("b") + `b{t="x"} 1` + "\n" + `a{t="y"} 1` + "\n",
		"family begun twice":   head("a") + "a 1\n" + head("b") + "b 1\n" + head("a") + "a 2\n",
		"sample before TYPE":   "# HELP a h\na 1\n",
		"TYPE after a sample":  head("a") + "a 1\n# TYPE a gauge\n",
		"unsorted labels":      head("a") + `a{t="y"} 1` + "\n" + `a{t="x"} 1` + "\n",
		"duplicate label set":  head("a") + `a{t="x"} 1` + "\n" + `a{t="x"} 2` + "\n",
		"not a number":         head("a") + "a one\n",
	} {
		if fams, err := Parse([]byte(body)); err == nil {
			t.Errorf("%s: accepted as %+v", name, fams)
		}
	}
}
