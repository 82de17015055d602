package graph

import (
	"strings"
	"testing"
)

func TestReadMatrixMarket(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern symmetric
% a triangle plus a pendant
4 4 4
1 2
2 3
1 3
3 4
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("edges wrong")
	}
}

func TestReadMatrixMarketWeighted(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
3 3 2
1 2 0.5
2 3 1.5
`
	g, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m=%d", g.M())
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"not a banner\n1 1 0\n",
		"%%MatrixMarket matrix array real\n",
		"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 2\n",               // non-square
		"%%MatrixMarket matrix coordinate real general\n3 3 1\n9 1\n",               // out of range
		"%%MatrixMarket matrix coordinate real general\n3 3 1\nx y\n",               // non-numeric
		"%%MatrixMarket matrix coordinate real general\nbad size\n",                 // bad size line
		"%%MatrixMarket matrix coordinate real general\n99999999 99999999 1\n1 2\n", // implausible
		"%%MatrixMarket matrix coordinate real general\n3 3 -5\n1 2\n",              // negative entry count
	}
	for _, c := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestReadMETIS(t *testing.T) {
	// The classic METIS example: 7 vertices, 11 edges.
	in := `% example graph
7 11
5 3 2
1 3 4
5 4 2 1
2 3 6 7
1 3 6
5 4 7
6 4
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 7 || g.M() != 11 {
		t.Fatalf("n=%d m=%d, want 7, 11", g.N(), g.M())
	}
	if !g.HasEdge(0, 4) || !g.HasEdge(3, 6) {
		t.Fatal("edges wrong")
	}
}

func TestReadMETISEdgeWeights(t *testing.T) {
	// fmt=1: each neighbor is followed by an edge weight.
	in := `3 2 1
2 7 3 9
1 7
1 9
`
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m=%d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) {
		t.Fatal("edges wrong")
	}
}

func TestReadMETISErrors(t *testing.T) {
	cases := []string{
		"x y\n",
		"3 1\n2\n",     // missing vertex lines
		"2 1\n9\n1\n",  // neighbor out of range
		"2 1\nzz\n1\n", // non-numeric
		"99999999 1\n", // implausible
		"3 -5\n",       // negative edge count
	}
	for _, c := range cases {
		if _, err := ReadMETIS(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestReadMETISSelfLoopDropped(t *testing.T) {
	in := "2 1\n1 2\n1\n"
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 0) {
		t.Fatal("self loop kept")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d", g.M())
	}
}
