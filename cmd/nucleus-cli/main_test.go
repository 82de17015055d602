package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nucleus/internal/graph"
	"nucleus/internal/store"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	g := graph.Figure2()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := g.SaveEdgeList(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunCore(t *testing.T) {
	path := writeTestGraph(t)
	var sb strings.Builder
	if err := run([]string{"-graph", path, "-dec", "core", "-alg", "snd"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "n=6 m=6") {
		t.Fatalf("missing graph line: %q", out)
	}
	if !strings.Contains(out, "converged in 2 iterations") {
		t.Fatalf("missing convergence line: %q", out)
	}
	if !strings.Contains(out, "1: 3") || !strings.Contains(out, "2: 3") {
		t.Fatalf("missing histogram: %q", out)
	}
}

func TestRunAllDecompositionsAndAlgorithms(t *testing.T) {
	path := writeTestGraph(t)
	for _, dec := range []string{"core", "truss", "34"} {
		for _, alg := range []string{"peel", "snd", "and"} {
			var sb strings.Builder
			if err := run([]string{"-graph", path, "-dec", dec, "-alg", alg}, &sb); err != nil {
				t.Fatalf("%s/%s: %v", dec, alg, err)
			}
		}
	}
}

func TestRunHierarchy(t *testing.T) {
	path := writeTestGraph(t)
	var sb strings.Builder
	if err := run([]string{"-graph", path, "-hierarchy"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hierarchy: 2 nuclei") {
		t.Fatalf("missing hierarchy: %q", sb.String())
	}
}

func TestRunDOT(t *testing.T) {
	path := writeTestGraph(t)
	var sb strings.Builder
	if err := run([]string{"-graph", path, "-dot"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph nuclei {") {
		t.Fatalf("missing DOT: %q", sb.String())
	}
}

func TestRunGenericRS(t *testing.T) {
	path := writeTestGraph(t)
	var sb strings.Builder
	if err := run([]string{"-graph", path, "-r", "1", "-s", "3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "generic (1,3)") {
		t.Fatalf("missing generic output: %q", sb.String())
	}
	// Hierarchy not supported for generic.
	if err := run([]string{"-graph", path, "-r", "1", "-s", "3", "-hierarchy"}, &sb); err == nil {
		t.Fatal("expected error for generic hierarchy")
	}
}

func TestRunBudget(t *testing.T) {
	path := writeTestGraph(t)
	var sb strings.Builder
	if err := run([]string{"-graph", path, "-alg", "snd", "-max-sweeps", "1"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "stopped after 1 sweeps") {
		t.Fatalf("missing budget line: %q", sb.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	cases := [][]string{
		{},
		{"-graph", "/does/not/exist"},
		{"-graph", path, "-alg", "bogus"},
		{"-graph", path, "-dec", "bogus"},
		{"-bogus-flag"},
		{"-graph", path, "-r", "3", "-s", "2"}, // used to panic out of the library
		{"-graph", path, "-r", "2"},            // used to be ignored and run k-core
		{"-graph", path, "-s", "3"},
		{"-graph", path, "-r", "0", "-s", "2"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("no error for %v", args)
		}
	}
	// Suppress flag usage noise in test output.
	_ = os.Stderr
}

func TestSnapshotInspect(t *testing.T) {
	g := graph.Figure2()
	kappa := []int32{2, 2, 2, 1, 1, 0}[:g.N()]
	path := filepath.Join(t.TempDir(), "snapshot.nsnap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := &store.Snapshot{
		Meta:  store.Meta{Version: 42, Source: "upload:edgelist", CreatedAt: time.Unix(0, 1234), Mutations: 3},
		Graph: g,
		Kappa: kappa,
	}
	if err := store.EncodeSnapshot(f, snap); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := run([]string{"snapshot", "inspect", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"checksum OK",
		"n=6 m=6",
		"version:  42 (3 mutation batches)",
		"source:   upload:edgelist",
		"kappa:    present",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("inspect output missing %q:\n%s", want, out)
		}
	}

	// A corrupted snapshot must fail loudly, not print garbage.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "bad.nsnap")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"snapshot", "inspect", bad}, &sb); err == nil {
		t.Fatal("inspect accepted a corrupted snapshot")
	}

	// Usage errors.
	if err := run([]string{"snapshot"}, &sb); err == nil {
		t.Fatal("bare snapshot subcommand must error with usage")
	}
	if err := run([]string{"snapshot", "inspect"}, &sb); err == nil {
		t.Fatal("inspect without files must error with usage")
	}
}
