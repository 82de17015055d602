package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// remapThreshold is the largest max-vertex-id the text loader will use
// directly; above it, ids are treated as sparse labels (e.g. raw Twitter
// user ids) and remapped densely, keeping memory proportional to the edge
// count rather than the id range.
const remapThreshold = 1 << 24

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' are comments. Vertex ids are used
// directly (vertex count = max id + 1) while the maximum id stays below
// 2^24; beyond that the ids are remapped densely in increasing order.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges [][2]uint32
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected two fields, got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	maxID := uint32(0)
	for _, e := range edges {
		if e[0] > maxID {
			maxID = e[0]
		}
		if e[1] > maxID {
			maxID = e[1]
		}
	}
	if maxID >= remapThreshold {
		remapDense(edges)
	}
	return Build(-1, edges), nil
}

// remapDense rewrites endpoint ids to 0..k-1 preserving their relative
// order.
func remapDense(edges [][2]uint32) {
	ids := make([]uint32, 0, 2*len(edges))
	for _, e := range edges {
		ids = append(ids, e[0], e[1])
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	remap := make(map[uint32]uint32, len(ids))
	next := uint32(0)
	for _, id := range ids {
		if _, ok := remap[id]; !ok {
			remap[id] = next
			next++
		}
	}
	for i := range edges {
		edges[i][0] = remap[edges[i][0]]
		edges[i][1] = remap[edges[i][1]]
	}
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as "u v" lines with u < v.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for e := range g.M() {
		u, v := g.Edge(e)
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to an edge-list file.
func (g *Graph) SaveEdgeList(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return g.WriteEdgeList(f)
}
