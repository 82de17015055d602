package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the text loader never panics and that any graph
// it accepts round-trips through the writer.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("# comment\n5 5\n"))
	f.Add([]byte(""))
	f.Add([]byte("4294967295 0\n"))
	f.Add([]byte("1 2 3 4\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write failed on accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip changed edge count: %d vs %d", g2.M(), g.M())
		}
	})
}

// headerN returns the vertex count a MatrixMarket (after its banner
// line) or METIS input declares: the first field of the first line that
// is neither blank nor a % comment. Both loaders read an input without
// such a line as the empty graph, so that is 0; a first field that is
// not a number is -1, which no accepted graph has.
func headerN(data []byte, banner bool) int64 {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if banner {
		sc.Scan()
	}
	for sc.Scan() {
		if text := strings.TrimSpace(sc.Text()); text != "" && !strings.HasPrefix(text, "%") {
			n, err := strconv.ParseInt(strings.Fields(text)[0], 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return 0
}

// fuzzHeaderFormat checks a header-carrying loader never panics and that
// a graph it accepts has the header's vertex count and round-trips
// through the edge-list writer with its edge count, as FuzzReadEdgeList
// checks. Inputs declaring more than 1<<16 vertices are not run: an
// accepted one allocates per declared vertex, and the fuzzer would spend
// its memory on empty million-vertex graphs.
func fuzzHeaderFormat(f *testing.F, banner bool, read func(io.Reader) (*Graph, error)) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n := headerN(data, banner)
		if n > 1<<16 {
			return
		}
		g, err := read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if int64(g.N()) != n {
			t.Fatalf("accepted graph has n=%d, header says %d", g.N(), n)
		}
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write failed on accepted graph: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip changed edge count: %d vs %d", g2.M(), g.M())
		}
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add([]byte("%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 1\n3 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n% c\n\n4 4 2\n1 2 0.5\n4 4 1\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n3 3 -5\n1 2\n"))
	f.Add([]byte("%%MatrixMarket matrix coordinate real general\n2 3 1\n"))
	f.Add([]byte(""))
	fuzzHeaderFormat(f, true, ReadMatrixMarket)
}

func FuzzReadMETIS(f *testing.F) {
	f.Add([]byte("3 3\n2 3\n1 3\n1 2\n"))
	f.Add([]byte("% c\n3 2 1\n2 7 3 9\n1 7\n1 9\n"))
	f.Add([]byte("2 1 10\n5 2\n5 1\n"))
	f.Add([]byte("3 -5\n"))
	f.Add([]byte(""))
	fuzzHeaderFormat(f, false, ReadMETIS)
}

// FuzzBuild checks graph construction tolerates arbitrary edge lists.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2})
	f.Add([]byte{7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges [][2]uint32
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]uint32{uint32(data[i]), uint32(data[i+1])})
		}
		g := Build(-1, edges)
		// Basic invariants: sorted unique rows, mirrored edges, ids dense.
		var undirected int64
		for u := 0; u < g.N(); u++ {
			ns := g.Neighbors(uint32(u))
			for i, v := range ns {
				if i > 0 && ns[i-1] >= v {
					t.Fatal("row not sorted/unique")
				}
				if v == uint32(u) {
					t.Fatal("self loop survived")
				}
				if !g.HasEdge(v, uint32(u)) {
					t.Fatal("asymmetric edge")
				}
				if v > uint32(u) {
					undirected++
				}
			}
		}
		if undirected != g.M() {
			t.Fatalf("edge count mismatch: %d vs %d", undirected, g.M())
		}
		// The builder must be bit-identical to the sort-based reference, ids
		// (numbered on this first read) included, at every thread count.
		for _, threads := range []int{1, 2, 4, 8} {
			if err := sameGraph(refBuild(-1, edges, threads), BuildThreads(-1, edges, threads)); err != nil {
				t.Fatalf("BuildThreads(%d) diverges from refBuild: %v", threads, err)
			}
		}
	})
}

// sameGraph reports the first structural difference between two graphs,
// including edge-id assignment and endpoint tables, which it forces on both.
func sameGraph(a, b *Graph) error {
	if a.N() != b.N() || a.M() != b.M() {
		return fmt.Errorf("shape: n %d vs %d, m %d vs %d", a.N(), b.N(), a.M(), b.M())
	}
	a.ids()
	b.ids()
	return cmp.Or(
		firstDiff("offs", a.offs, b.offs), firstDiff("adj", a.adj, b.adj), firstDiff("eid", a.eid, b.eid),
		firstDiff("edgeU", a.edgeU, b.edgeU), firstDiff("edgeV", a.edgeV, b.edgeV))
}

func firstDiff[T comparable](name string, a, b []T) error {
	if len(a) != len(b) {
		return fmt.Errorf("len(%s): %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s[%d]: %v vs %v", name, i, a[i], b[i])
		}
	}
	return nil
}
