package hierarchy

import (
	"bytes"
	"encoding/json"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

func hubForest(t *testing.T) (*graph.Graph, *Forest) {
	t.Helper()
	var edges [][2]uint32
	hub := uint32(15)
	for c := 0; c < 3; c++ {
		base := uint32(c * 5)
		for i := uint32(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				edges = append(edges, [2]uint32{base + i, base + j})
			}
		}
		edges = append(edges, [2]uint32{hub, base})
	}
	g := graph.Build(16, edges)
	inst := nucleus.NewCore(g)
	return g, Build(inst, peel.Run(inst).Kappa)
}

func TestWriteJSON(t *testing.T) {
	g, f := hubForest(t)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	var roots []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &roots); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(roots) != 1 {
		t.Fatalf("roots = %d", len(roots))
	}
	if k := roots[0]["k"].(float64); k != 3 {
		t.Fatalf("root k = %v", k)
	}
	kids := roots[0]["children"].([]any)
	if len(kids) != 3 {
		t.Fatalf("children = %d", len(kids))
	}
	// Without a graph, densities are omitted.
	var buf2 bytes.Buffer
	if err := f.WriteJSON(&buf2, nil); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf2.Bytes(), []byte("density")) {
		t.Fatal("density present without graph")
	}
}

func TestSubgraph(t *testing.T) {
	g, f := hubForest(t)
	leaves := f.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	sub, _ := f.Subgraph(g, leaves[0])
	if sub.N() != 5 || sub.M() != 10 {
		t.Fatalf("leaf subgraph: n=%d m=%d, want K5", sub.N(), sub.M())
	}
}

func TestNodesAtLevel(t *testing.T) {
	_, f := hubForest(t)
	if got := len(f.NodesAtLevel(4)); got != 3 {
		t.Fatalf("level-4 nodes = %d", got)
	}
	if got := len(f.NodesAtLevel(3)); got != 1 {
		t.Fatalf("level-3 nodes = %d", got)
	}
	if got := len(f.NodesAtLevel(99)); got != 0 {
		t.Fatalf("level-99 nodes = %d", got)
	}
}

func TestFind(t *testing.T) {
	_, f := hubForest(t)
	// The hub (cell 15) has κ=3 and lives directly in the root.
	n := f.Find(15)
	if n == None || f.K[n] != 3 {
		t.Fatalf("Find(hub) = %v", n)
	}
	// A clique vertex lives in a κ=4 leaf.
	n = f.Find(0)
	if n == None || f.K[n] != 4 {
		t.Fatalf("Find(clique vertex) = %v", n)
	}
	if f.Find(9999) != None || f.Find(-1) != None {
		t.Fatal("found nonexistent cell")
	}
}
