package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 130, 80, 120, 85, 100, 125, 75, 110, 90}
	cases := []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"10 % faster, every pair", base, shift(0.9), "lower", "better"},
		{"10 % more throughput", base, shift(1.1), "higher", "better"},
		{"half a percent: inside A's quartiles", base, shift(0.995), "lower", "same"},
		{"same runs", base, base, "lower", "same"},
		{"12 % slower", base, shift(1.12), "lower", "worse"},
		{"12 % less throughput", base, shift(0.88), "higher", "worse"},
		{"spread wider than the bound", noisy, shift(1.0), "lower", "unresolved"},
		{"noisy, but every run of B beats every run of A", noisy, shift(0.5), "lower", "better"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Wins at nine tenths exactly, ties counting for neither side.
	b := shift(0.9)
	b[0] = base[0]
	if got, wins := verdict(base, b, "lower", 0.10); got != "better" || wins != 0.9 {
		t.Errorf("nine wins and a tie: %q at %v", got, wins)
	}
	b[1] = base[1]
	if got, _ := verdict(base, b, "lower", 0.10); got == "better" {
		t.Error("eight wins of ten must not read better")
	}
}

func TestCompareSetsPrintsEveryPairing(t *testing.T) {
	set := func(scale float64) runSetFile {
		var s runSetFile
		for seed := int64(1); seed <= 5; seed++ {
			for _, w := range workloadNames {
				r := oneRun{Workload: w, Seed: seed}
				r.Correct, r.Attempted = true, 100
				r.Metrics = map[string]metricValue{}
				for _, def := range endToEnd {
					r.Metrics[def.Name] = metricValue{Value: scale * (100 + float64(seed)), Unit: def.Unit}
				}
				s.Runs = append(s.Runs, r)
			}
		}
		return s
	}
	var out bytes.Buffer
	if err := compareSets(&out, set(1), set(1)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if want := 1 + len(workloadNames)*len(endToEnd); len(lines) != want {
		t.Fatalf("%d lines, want a header and %d rows:\n%s", len(lines), want-1, out.String())
	}
	for _, l := range lines[1:] {
		if !strings.HasSuffix(l, "same") {
			t.Errorf("identical sets must agree: %s", l)
		}
	}

	broken := set(1)
	broken.Runs[0].Failed = 3
	out.Reset()
	if err := compareSets(&out, set(1), broken); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 of 100 ops failed") {
		t.Errorf("a run with failed ops must be called out:\n%s", out.String())
	}
	if err := compareSets(&out, set(1), runSetFile{}); err == nil {
		t.Error("comparing against an empty set must be an error")
	}
}
