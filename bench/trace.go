package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A span is one timed call made by the benchmark into a layer of the
// repository. Spans of one op share Op (the id of the op's root span); a
// span with Parent 0 is a root. Replayed marks work that was repeated on
// shadow state right after the op it is attributed to, because the op
// itself ran behind HTTP where the benchmark cannot time the call.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Op       int     `json:"op"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"startUs"`
	EndUs    float64 `json:"endUs"`
	Replayed bool    `json:"replayed,omitempty"`
}

func (s span) ms() float64 { return (s.EndUs - s.StartUs) / 1000 }

// tracer keeps every span and count of one traced pass in memory; nothing
// is written until the pass has ended (writeFile).
type tracer struct {
	mu     sync.Mutex // serve_query traces from two client goroutines
	t0     time.Time
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string][]float64{}}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1000 }

// begin opens a span under parent (0 opens a root, whose Op is its own id).
func (t *tracer) begin(parent int, name string, replayed bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Replayed: replayed, StartUs: t.now()})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUs = t.now()
}

// count records one observation of a counter; the pass reports the median
// of a counter's observations, which repeats exactly when they do.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// selfTimes returns each span's self time in ms, indexed by span id - 1:
// its duration minus the durations of its direct children. Children of one
// span never overlap (one caller per op), so that is the part of the
// span's interval no child covers; for replayed children it is the part of
// the op the replays do not account for, and may be negative.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.ms()
		if s.Parent != 0 {
			self[s.Parent-1] -= s.ms()
		}
	}
	return self
}

// layerSelf groups the self times of all non-root spans by span name.
func layerSelf(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for i, s := range spans {
		if s.Parent != 0 {
			out[s.Name] = append(out[s.Name], self[i])
		}
	}
	return out
}

// opBreakdown is the accounting of one traced op: Wall = Layers + Residual
// exactly, where Layers is the summed self time of every span below the
// root and Residual is the root's own self time.
type opBreakdown struct {
	Name                   string
	Wall, Layers, Residual float64
}

func opBreakdowns(spans []span) []opBreakdown {
	self := selfTimes(spans)
	byOp := map[int]*opBreakdown{}
	var order []int
	for i, s := range spans {
		b := byOp[s.Op]
		if b == nil {
			b = &opBreakdown{}
			byOp[s.Op] = b
			order = append(order, s.Op)
		}
		if s.Parent == 0 {
			b.Name, b.Wall, b.Residual = s.Name, s.ms(), self[i]
		} else {
			b.Layers += self[i]
		}
	}
	out := make([]opBreakdown, 0, len(order))
	for _, op := range order {
		out = append(out, *byOp[op])
	}
	return out
}

// writeFile writes the spans and counts as one JSON document.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	data, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Counts map[string][]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return nil
}
