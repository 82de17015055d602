package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadMatrixMarket parses a MatrixMarket coordinate file as an undirected
// graph. The "%%MatrixMarket" banner and the size line are validated;
// entry values (for weighted/pattern variants) are ignored. MatrixMarket
// indices are 1-based and converted to 0-based vertex ids.
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("graph: empty MatrixMarket input")
	}
	banner := strings.Fields(strings.ToLower(sc.Text()))
	if len(banner) < 3 || banner[0] != "%%matrixmarket" || banner[1] != "matrix" || banner[2] != "coordinate" {
		return nil, fmt.Errorf("graph: not a MatrixMarket coordinate file: %q", sc.Text())
	}

	// Skip comments, read the size line.
	var n, m int64
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("graph: bad size line %q", text)
		}
		rows, err1 := strconv.ParseInt(fields[0], 10, 64)
		cols, err2 := strconv.ParseInt(fields[1], 10, 64)
		nnz, err3 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("graph: bad size line %q", text)
		}
		if rows != cols {
			return nil, fmt.Errorf("graph: non-square matrix %dx%d", rows, cols)
		}
		if rows < 0 || rows >= remapThreshold {
			return nil, fmt.Errorf("graph: implausible dimension %d", rows)
		}
		if nnz < 0 {
			return nil, fmt.Errorf("graph: negative entry count %d", nnz)
		}
		n, m = rows, nnz
		break
	}

	edges := make([][2]uint32, 0, min64(m, 1<<20))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: entry line %d: %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: entry line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: entry line %d: %v", line, err)
		}
		if u < 1 || v < 1 || u > n || v > n {
			return nil, fmt.Errorf("graph: entry line %d: index out of range", line)
		}
		edges = append(edges, [2]uint32{uint32(u - 1), uint32(v - 1)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return Build(int(n), edges), nil
}

// ReadMETIS parses a METIS graph file: a header line "n m [fmt]" followed
// by one line per vertex listing its (1-based) neighbors. Vertex and edge
// weights (fmt values 1/10/11/100...) are skipped.
func ReadMETIS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var n, m int64
	fmtCode := "0"
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: bad METIS header %q", text)
		}
		var err1, err2 error
		n, err1 = strconv.ParseInt(fields[0], 10, 64)
		m, err2 = strconv.ParseInt(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graph: bad METIS header %q", text)
		}
		if n < 0 || n >= remapThreshold {
			return nil, fmt.Errorf("graph: implausible vertex count %d", n)
		}
		if m < 0 {
			return nil, fmt.Errorf("graph: negative edge count %d", m)
		}
		if len(fields) >= 3 {
			fmtCode = fields[2]
		}
		break
	}
	hasVertexWeights := strings.HasSuffix(fmtCode, "10") || fmtCode == "10" || fmtCode == "11"
	hasEdgeWeights := strings.HasSuffix(fmtCode, "1")
	// The ncon (number of vertex weights) field is 1 when vertex weights
	// are present; we support the common single-constraint files.

	edges := make([][2]uint32, 0, min64(m, 1<<20))
	u := int64(0)
	for sc.Scan() && u < n {
		text := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		idx := 0
		if hasVertexWeights {
			idx++ // skip the vertex weight
		}
		for idx < len(fields) {
			v, err := strconv.ParseInt(fields[idx], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: vertex %d: %v", u+1, err)
			}
			idx++
			if hasEdgeWeights {
				idx++ // skip the edge weight
			}
			if v < 1 || v > n {
				return nil, fmt.Errorf("graph: vertex %d: neighbor %d out of range", u+1, v)
			}
			if int64(v-1) != u { // drop self loops
				edges = append(edges, [2]uint32{uint32(u), uint32(v - 1)})
			}
		}
		u++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if u != n {
		return nil, fmt.Errorf("graph: METIS file has %d of %d vertex lines", u, n)
	}
	return Build(int(n), edges), nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
