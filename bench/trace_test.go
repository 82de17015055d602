package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// An op with two inline layers (one of them with a nested call), one
// replayed layer, and a probe beside it.
func syntheticSpans() []span {
	return []span{
		{ID: 1, Parent: 0, Op: 1, Name: "w/main", StartUs: 0, EndUs: 10000},
		{ID: 2, Parent: 1, Op: 1, Name: "a", StartUs: 1000, EndUs: 5000},
		{ID: 3, Parent: 2, Op: 1, Name: "a.inner", StartUs: 2000, EndUs: 3000},
		{ID: 4, Parent: 1, Op: 1, Name: "b", StartUs: 5000, EndUs: 8000},
		{ID: 5, Parent: 1, Op: 1, Name: "c", StartUs: 11000, EndUs: 12500, Replayed: true},
		{ID: 6, Parent: 0, Op: 6, Name: "probe", StartUs: 13000, EndUs: 15000},
		{ID: 7, Parent: 6, Op: 6, Name: "d", StartUs: 13000, EndUs: 14900},
	}
}

func TestSelfTime(t *testing.T) {
	self := selfTimes(syntheticSpans())
	want := []float64{10 - 4 - 3 - 1.5, 4 - 1, 1, 3, 1.5, 2 - 1.9, 1.9}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self time of span %d = %v ms, want %v", i+1, self[i], want[i])
		}
	}
	layers := layerSelf(syntheticSpans())
	if len(layers) != 5 || !near(layers["a"][0], 3) || !near(layers["a.inner"][0], 1) {
		t.Errorf("layerSelf = %v: want the five non-root names, a=3, a.inner=1", layers)
	}
	if _, ok := layers["w/main"]; ok {
		t.Error("a root span is an op, not a layer")
	}
}

func TestOpBreakdownAddsUp(t *testing.T) {
	ops := opBreakdowns(syntheticSpans())
	if len(ops) != 2 || ops[0].Name != "w/main" || ops[1].Name != "probe" {
		t.Fatalf("ops = %+v", ops)
	}
	for _, op := range ops {
		if !near(op.Layers+op.Residual, op.Wall) {
			t.Errorf("%s: layers %v + residual %v != wall %v", op.Name, op.Layers, op.Residual, op.Wall)
		}
	}
	if !near(ops[0].Layers, 8.5) || !near(ops[0].Residual, 1.5) {
		t.Errorf("w/main: layers %v residual %v, want 8.5 and 1.5", ops[0].Layers, ops[0].Residual)
	}
}

func TestRecorderSpans(t *testing.T) {
	tr := newTracer()
	rec := &recorder{tr: tr}
	rec.do(slotMain, "w/main", func() error { return nil })
	rec.replay("x", func() {})
	id := rec.replay("y", func() {})
	rec.spanUnder(id, "y.inner", true, func() {})
	rec.probe("z", func() {})
	rec.count("n", 3)
	rec.count("n", 5)

	if len(tr.spans) != 6 {
		t.Fatalf("recorded %d spans, want 6", len(tr.spans))
	}
	for i, want := range []struct {
		name   string
		parent int
		op     int
	}{{"w/main", 0, 1}, {"x", 1, 1}, {"y", 1, 1}, {"y.inner", 3, 1}, {"probe", 0, 5}, {"z", 5, 5}} {
		s := tr.spans[i]
		if s.Name != want.name || s.Parent != want.parent || s.Op != want.op || s.EndUs < s.StartUs {
			t.Errorf("span %d = %+v, want %+v", i+1, s, want)
		}
	}
	if !tr.spans[1].Replayed || !tr.spans[3].Replayed || tr.spans[5].Replayed {
		t.Error("replays are marked replayed, a probe's layer is not")
	}
	if median(tr.counts["n"]) != 4 {
		t.Errorf("counts = %v", tr.counts)
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back struct{ Spans []span }
	if err := json.Unmarshal(data, &back); err != nil || len(back.Spans) != 6 {
		t.Errorf("trace file does not read back: %v, %d spans", err, len(back.Spans))
	}
}

// An untraced recorder times the op and skips everything that exists only
// to be traced.
func TestRecorderUntraced(t *testing.T) {
	rec := &recorder{}
	ran := map[string]bool{}
	rec.do(slotAlt, "w/alt", func() error { ran["op"] = true; return nil })
	rec.replay("y", func() { ran["replay"] = true })
	rec.probe("z", func() { ran["probe"] = true })
	if !ran["op"] || ran["replay"] || ran["probe"] {
		t.Errorf("ran = %v: want the op only", ran)
	}
	if rec.ops != 1 || len(rec.slot[slotAlt]) != 1 || rec.failed != 0 {
		t.Errorf("recorder = %+v", rec)
	}
}
