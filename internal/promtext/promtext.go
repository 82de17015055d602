// Package promtext is the observability layer of nucleusd and
// nucleus-router: the Counter their /stats documents are built from, the
// reflective walk that derives /metrics from such a document, and the
// Prometheus text exposition format (version 0.0.4) itself, written and
// read back without the client library so the module stays
// dependency-free. Only the subset the daemons need is implemented —
// counter and gauge samples with optional labels.
//
// A stats document is a struct whose cumulative fields are Counters and
// whose fields carry three tags: `json` (the /stats key), `prom` (the
// series name) and `help`. The struct is the only declaration of a
// counter: the owner increments the field, GET /stats marshals a
// Snapshot of it, and GET /metrics hands the same snapshot to
// Writer.Struct.
package promtext

import (
	"bytes"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// ContentType is the Content-Type of the rendered exposition.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Counter is a cumulative count that lives in a stats document: an
// atomic.Int64 (Add, Load, Store are its own methods, so an increment
// is one atomic add on a struct field) that marshals as a JSON number.
type Counter struct{ atomic.Int64 }

func (c *Counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

func (c *Counter) UnmarshalJSON(b []byte) error {
	n, err := strconv.ParseInt(string(b), 10, 64)
	c.Store(n)
	return err
}

var counterType = reflect.TypeOf(Counter{})

// Snapshot returns a new T in which every Counter holds the value it
// had in src when it was loaded and every other field is zero, for the
// caller to fill with its read-time gauges. Rendering the snapshot
// rather than the live document makes one response one consistent set
// of numbers (a sum of two counters stays the sum of the two values
// shown) and keeps the gauges off the shared struct.
func Snapshot[T any](src *T) *T {
	dst := new(T)
	copyCounters(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
	return dst
}

func copyCounters(dst, src reflect.Value) {
	for i := 0; i < src.NumField(); i++ {
		switch f := src.Field(i); {
		case f.Type() == counterType:
			counterOf(dst.Field(i)).Store(counterOf(f).Load())
		case f.Kind() == reflect.Struct:
			copyCounters(dst.Field(i), f)
		}
	}
}

func counterOf(v reflect.Value) *Counter { return v.Addr().Interface().(*Counter) }

// Writer accumulates one exposition. The zero value is ready to use.
// Samples are grouped per metric name and, within a name, sorted by
// their label text when Bytes renders them, so neither the order of
// calls nor map iteration can produce the interleaved families the
// format forbids. Families appear in order of first use.
type Writer struct {
	families []*family
	byName   map[string]*family
}

type family struct {
	name, help, typ string
	samples         []sample
}

type sample struct {
	labels string // rendered `{k="v",...}`, empty when unlabeled
	v      float64
}

func (w *Writer) add(name, help, typ string, labels map[string]string, v float64) {
	f := w.byName[name]
	if f == nil {
		if w.byName == nil {
			w.byName = make(map[string]*family)
		}
		f = &family{name: name, help: help, typ: typ}
		w.byName[name] = f
		w.families = append(w.families, f)
	}
	f.samples = append(f.samples, sample{renderLabels(labels), v})
}

// renderLabels renders a label set in sorted key order.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter adds an unlabeled counter sample.
func (w *Writer) Counter(name, help string, v float64) {
	w.add(name, help, "counter", nil, v)
}

// Gauge adds an unlabeled gauge sample.
func (w *Writer) Gauge(name, help string, v float64) {
	w.add(name, help, "gauge", nil, v)
}

// LabeledCounter adds one labeled counter sample.
func (w *Writer) LabeledCounter(name, help string, labels map[string]string, v float64) {
	w.add(name, help, "counter", labels, v)
}

// LabeledGauge adds one labeled gauge sample.
func (w *Writer) LabeledGauge(name, help string, labels map[string]string, v float64) {
	w.add(name, help, "gauge", labels, v)
}

// Struct adds one unlabeled sample for every field of the struct doc
// points to that carries a `prom:"name"` tag, with the field's `help`
// tag as HELP text, descending into nested and embedded structs. A
// name ending in _total is a counter (the Prometheus convention), any
// other a gauge; the value is a Counter's load, an integer or float as
// is, or a bool as 0/1. Fields without the tag have no series: strings,
// maps and slices are the caller's labeled families.
func (w *Writer) Struct(doc any) {
	w.walk(reflect.ValueOf(doc).Elem())
}

func (w *Writer) walk(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		name, tagged := f.Tag.Lookup("prom")
		switch {
		case tagged:
			typ := "gauge"
			if strings.HasSuffix(name, "_total") {
				typ = "counter"
			}
			w.add(name, f.Tag.Get("help"), typ, nil, leafValue(fv))
		case fv.Kind() == reflect.Struct && fv.Type() != counterType:
			w.walk(fv)
		}
	}
}

func leafValue(v reflect.Value) float64 {
	if v.Type() == counterType {
		return float64(counterOf(v).Load())
	}
	switch v.Kind() {
	case reflect.Bool:
		return Bool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		return v.Float()
	}
	panic("promtext: prom tag on a field of kind " + v.Kind().String())
}

// Bool is the sample value of a condition: 1 when it holds, else 0.
func Bool(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Bytes renders the exposition: per family one HELP and one TYPE line,
// then its samples.
func (w *Writer) Bytes() []byte {
	var buf bytes.Buffer
	for _, f := range w.families {
		buf.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
		buf.WriteString("# TYPE " + f.name + " " + f.typ + "\n")
		sort.SliceStable(f.samples, func(i, j int) bool { return f.samples[i].labels < f.samples[j].labels })
		for _, s := range f.samples {
			buf.WriteString(f.name + s.labels + " " + strconv.FormatFloat(s.v, 'g', -1, 64) + "\n")
		}
	}
	return buf.Bytes()
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP text: backslash and newline (quotes are
// legal there).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}
