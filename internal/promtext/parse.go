package promtext

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// Family is one metric family read back from an exposition.
type Family struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one sample line. Labels is the label set as written,
// braces included, and empty for an unlabeled sample.
type Sample struct {
	Labels string
	Value  float64
}

// Parse reads back an exposition of the subset Writer produces and
// holds it to the format's grouping rules, which a scraper enforces and
// a test should too: a family is one HELP line, one TYPE line and then
// all of its samples, no name comes back once another family has begun,
// and within a family the label sets are distinct and ascending.
func Parse(exposition []byte) ([]Family, error) {
	var fams []Family
	seen := map[string]bool{}
	unescape := strings.NewReplacer(`\\`, `\`, `\n`, "\n")
	for n, line := range strings.Split(strings.TrimSuffix(string(exposition), "\n"), "\n") {
		fail := func(format string, args ...any) ([]Family, error) {
			return nil, fmt.Errorf("promtext: line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		if line == "" {
			continue
		}
		var cur *Family
		if len(fams) > 0 {
			cur = &fams[len(fams)-1]
		}
		if help, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(help, " ")
			if seen[name] {
				return fail("family %s begins a second time", name)
			}
			seen[name] = true
			fams = append(fams, Family{Name: name, Help: unescape.Replace(text)})
			continue
		}
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, t, _ := strings.Cut(typ, " ")
			if cur == nil || cur.Name != name || cur.Type != "" || len(cur.Samples) > 0 {
				return fail("TYPE does not follow the HELP line of %s", name)
			}
			cur.Type = t
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fail("not a sample")
		}
		series, value := line[:sp], line[sp+1:]
		name, labels := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		if cur == nil || cur.Name != name || cur.Type == "" {
			return fail("sample of %s outside its family's HELP/TYPE group", name)
		}
		if k := len(cur.Samples); k > 0 && cur.Samples[k-1].Labels >= labels {
			return fail("label set not above the previous sample's %q", cur.Samples[k-1].Labels)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail("%v", err)
		}
		cur.Samples = append(cur.Samples, Sample{Labels: labels, Value: v})
	}
	return fams, nil
}

// Leaf is one numeric or bool leaf of a stats document type: its /stats
// JSON path (a map or slice level reads "*") and, when tagged, the
// series and HELP text Writer.Struct gives it.
type Leaf struct {
	Path, Series, Help string
}

// Leaves lists the leaves of doc's type, tagged or not and through maps
// and slices too, so a test can hold a document to "every number has a
// series or a stated reason" and pair /stats values with /metrics
// samples. Strings and `json:"-"` fields without a prom tag are no
// leaves.
func Leaves(doc any) []Leaf {
	return leaves(reflect.TypeOf(doc), "", "")
}

func leaves(t reflect.Type, path string, tag reflect.StructTag) []Leaf {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice:
		if t.Kind() != reflect.Pointer {
			path += ".*"
		}
		return leaves(t.Elem(), path, tag)
	case reflect.Struct:
		if t == counterType {
			break
		}
		var out []Leaf
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() && !f.Anonymous {
				continue
			}
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			sub := path
			if !f.Anonymous || key != "" {
				sub = strings.TrimPrefix(path+"."+key, ".")
			}
			if _, tagged := f.Tag.Lookup("prom"); key != "-" || tagged {
				out = append(out, leaves(f.Type, sub, f.Tag)...)
			}
		}
		return out
	case reflect.String:
		return nil
	}
	return []Leaf{{Path: path, Series: tag.Get("prom"), Help: tag.Get("help")}}
}
