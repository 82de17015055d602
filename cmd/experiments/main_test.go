package main

import (
	"fmt"
	"strings"
	"testing"

	"nucleus/internal/nucleus"
)

func TestRunFig2(t *testing.T) {
	var sb strings.Builder
	if err := run("fig2", "core", &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The exact Figure 2 values from the paper.
	if !strings.Contains(out, "degrees (tau0)       2   3   2   2   2   1") {
		t.Fatalf("wrong tau0 row: %q", out)
	}
	if !strings.Contains(out, "SND tau1             2   2   2   2   1   1") {
		t.Fatalf("wrong tau1 row: %q", out)
	}
	if !strings.Contains(out, "SND tau2             1   2   2   2   1   1") {
		t.Fatalf("wrong tau2 row: %q", out)
	}
	if !strings.Contains(out, "converged in 1 iteration(s)") {
		t.Fatalf("missing Theorem 4 line: %q", out)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run("fig2", "bogus", &sb); err == nil {
		t.Error("no error for bad decomposition")
	}
	if err := run("bogus", "core", &sb); err == nil {
		t.Error("no error for bad experiment")
	}
}

// TestRunDecSpellings: -dec takes exactly ParseFamily's spellings, each
// selecting its own (r,s).
func TestRunDecSpellings(t *testing.T) {
	for _, f := range []nucleus.Family{nucleus.FamilyCore, nucleus.FamilyTruss, nucleus.FamilyN34} {
		r, s := f.RS()
		for _, dec := range f.Spellings() {
			var sb strings.Builder
			if err := run("tradeoff", dec, &sb); err != nil {
				t.Fatalf("-dec %s: %v", dec, err)
			}
			if want := fmt.Sprintf("trade-off: (%d,%d) on", r, s); !strings.Contains(sb.String(), want) {
				t.Fatalf("-dec %s: header is not %q: %q", dec, want, sb.String())
			}
		}
	}
	for _, dec := range []string{"bogus", "Core", "3,4"} {
		if err := run("fig2", dec, new(strings.Builder)); err == nil {
			t.Errorf("-dec %q: no error", dec)
		}
	}
}

func TestRunOneCheapExperiments(t *testing.T) {
	// Exercise the cheap drivers end to end on the core decomposition.
	for _, name := range []string{"fig2"} {
		var sb strings.Builder
		if err := runOne(name, nucleus.FamilyCore, &sb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sb.Len() == 0 {
			t.Fatalf("%s: empty output", name)
		}
	}
}

func TestBoundKeys(t *testing.T) {
	if len(boundKeys(nucleus.FamilyN34)) >= len(boundKeys(nucleus.FamilyCore)) {
		t.Error("(3,4) bound keys should be the smaller set")
	}
}
