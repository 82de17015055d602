package server

import (
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/promtext"
)

// TestDocsRoutesConsistency is the docs drift gate: every route
// registered in routes() must be documented in docs/API.md, and every
// route documented there must still exist. Routes are extracted from the
// source (http.ServeMux patterns are not enumerable at runtime) and from
// the `### `-level headings of API.md, whose convention is a
// backtick-quoted "METHOD /path" per documented route (query strings and
// optional [?...] suffixes are ignored).
func TestDocsRoutesConsistency(t *testing.T) {
	src, err := os.ReadFile("server.go")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, m := range regexp.MustCompile(`mux\.HandleFunc\("([A-Z]+ [^"]+)"`).FindAllStringSubmatch(string(src), -1) {
		registered[m[1]] = true
	}
	if len(registered) == 0 {
		t.Fatal("no routes found in server.go; did routes() move?")
	}

	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	routeRe := regexp.MustCompile("`(GET|POST|PUT|DELETE|PATCH) (/[^`\\s?\\[]*)")
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "### ") {
			continue
		}
		for _, m := range routeRe.FindAllStringSubmatch(line, -1) {
			documented[m[1]+" "+m[2]] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("no route headings found in docs/API.md; did the heading convention change?")
	}

	var missing, stale []string
	for r := range registered {
		if !documented[r] {
			missing = append(missing, r)
		}
	}
	for r := range documented {
		if !registered[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("routes registered in internal/server but missing from docs/API.md headings:\n  %s",
			strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("routes documented in docs/API.md but not registered in internal/server:\n  %s",
			strings.Join(stale, "\n  "))
	}
}

// TestDocsDecompositionNames is the drift gate between the names the
// parsers accept and the "Shared parameter vocabularies" of docs/API.md: the
// decomposition bullet lists exactly nucleus.ParseFamily's spellings, each
// alias under the family it parses to, and the algorithm bullet lists
// exactly localhi.ParseAlgorithm's.
func TestDocsDecompositionNames(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	bullet := func(name string) string {
		m := regexp.MustCompile(`(?s)\n- \*\*` + name + `\*\* — (.*?)\n(?:- |\n)`).FindSubmatch(doc)
		if m == nil {
			t.Fatalf("docs/API.md has no %q vocabulary bullet", name)
		}
		return strings.Join(strings.Fields(string(m[1])), " ")
	}
	ticked := regexp.MustCompile("`([^`]+)`")
	names := func(text string) (out []string) {
		for _, m := range ticked.FindAllStringSubmatch(text, -1) {
			out = append(out, m[1])
		}
		sort.Strings(out)
		return out
	}

	dec := bullet("decomposition")
	var want []string
	for f := nucleus.FamilyCore; f <= nucleus.FamilyN34; f++ {
		want = append(want, f.Spellings()...)
	}
	sort.Strings(want)
	if got := names(dec); !slices.Equal(got, want) {
		t.Errorf("docs/API.md lists the decompositions %q; nucleus.ParseFamily accepts %q", got, want)
	}
	_, aliases, ok := strings.Cut(dec, "Aliases:")
	groups := regexp.MustCompile("((?:`[^`]+`(?:, | and )?)+) for ([a-z0-9]+)").FindAllStringSubmatch(aliases, -1)
	if !ok || len(groups) == 0 {
		t.Fatalf("docs/API.md's decomposition bullet has no \"Aliases: `x` for y\" list: %q", dec)
	}
	for _, g := range groups {
		for _, alias := range names(g[1]) {
			if f, err := nucleus.ParseFamily(alias); err != nil || f.String() != g[2] {
				t.Errorf("docs/API.md lists %q as an alias of %s; it parses to %v (%v)", alias, g[2], f, err)
			}
		}
	}

	want = want[:0]
	for a := localhi.AND; a <= localhi.Peel; a++ {
		want = append(want, a.String())
	}
	sort.Strings(want)
	if got := names(bullet("algorithm")); !slices.Equal(got, want) {
		t.Errorf("docs/API.md lists the algorithms %q; localhi.ParseAlgorithm accepts %q", got, want)
	}
}

// TestDocsMetricsConsistency is the drift gate between /metrics and the
// "Metrics reference" of docs/OPERATIONS.md, in both directions: every
// family a node exposes (scraped after a tenant's job, so the per-tenant
// families exist) has a row with its type, every nucleusd_ row is still
// exposed, and a row's /stats path is the tagged field's.
func TestDocsMetricsConsistency(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "gnm", "n": 30, "m": 90, "seed": 1}, nil)
	runJobAs(t, ts.URL, "g", "alpha")
	fams, err := promtext.Parse(scrape(t, s, "/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	exposed := map[string]string{}
	for _, f := range fams {
		exposed[f.Name] = f.Type
	}
	paths := map[string]string{}
	for _, l := range promtext.Leaves(&statsResponse{}) {
		paths[l.Series] = l.Path
	}

	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("(?m)^\\| `(nucleusd_\\w+)(?:\\{[a-z,]+\\})?` \\| (\\w+) \\| `([^`]+)` \\|")
	rows := rowRe.FindAllStringSubmatch(string(doc), -1)
	if len(rows) == 0 {
		t.Fatal("no nucleusd_ rows found in docs/OPERATIONS.md; did the table convention change?")
	}
	for _, m := range rows {
		name, typ, path := m[1], m[2], m[3]
		switch want, ok := exposed[name]; {
		case !ok:
			t.Errorf("docs/OPERATIONS.md documents %s, which /metrics does not expose", name)
		case want != typ:
			t.Errorf("docs/OPERATIONS.md calls %s a %s; /metrics says %s", name, typ, want)
		}
		if want, derived := paths[name]; derived && want != path {
			t.Errorf("docs/OPERATIONS.md puts %s at /stats path %s; the tagged field is %s", name, path, want)
		}
		delete(exposed, name)
	}
	for name := range exposed {
		t.Errorf("/metrics exposes %s, which has no row in the metrics reference of docs/OPERATIONS.md", name)
	}
}
