package graph

import (
	"slices"
	"sort"

	"nucleus/internal/par"
)

// refBuild is the builder BuildThreads replaced, kept verbatim as the
// differential oracle: count, stable scatter, a pdqsort and dedup per row,
// a compaction copy, and edge ids numbered eagerly by a per-row prefix sum
// with one binary search per lower entry to mirror them. It returns a graph
// whose ids are already in place.
func refBuild(n int, edges [][2]uint32, threads int) *Graph {
	ne := len(edges)
	if threads < 1 {
		threads = 1
	}
	if threads > ne && ne > 0 {
		threads = ne
	}

	// Pass 1: per-worker degree counts over contiguous edge ranges. Self-loop
	// endpoints still raise the inferred max (Build(-1, [(7,7)]) has n = 8)
	// but contribute no degree.
	counts := make([][]int64, threads)
	maxVs := make([]uint32, threads)
	workers := par.Ranges(ne, threads, func(w, lo, hi int) {
		var c []int64
		if n >= 0 {
			c = make([]int64, n)
		}
		var maxV uint32
		for _, e := range edges[lo:hi] {
			u, v := e[0], e[1]
			if u > maxV {
				maxV = u
			}
			if v > maxV {
				maxV = v
			}
			if u == v {
				continue
			}
			if n < 0 && int(maxV) >= len(c) {
				want := int(maxV) + 1
				if grow := 2 * len(c); grow > want {
					want = grow
				}
				nc := make([]int64, want)
				copy(nc, c)
				c = nc
			}
			c[u]++
			c[v]++
		}
		counts[w], maxVs[w] = c, maxV
	})
	counts = counts[:workers]
	if n < 0 {
		n = 0
		if ne > 0 {
			m := maxVs[0]
			for _, v := range maxVs[1:workers] {
				if v > m {
					m = v
				}
			}
			n = int(m) + 1
		}
	}
	for w, c := range counts {
		if len(c) < n {
			nc := make([]int64, n)
			copy(nc, c)
			counts[w] = nc
		} else {
			counts[w] = c[:n]
		}
	}

	// Vertex-major, worker-minor merge: offs becomes the CSR offset array and
	// each counts[w][u] the first slot for worker w's entries of row u.
	offs := make([]int64, n+1)
	tot := offs[1:]
	par.ForEach(n, 4096, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			var t int64
			for _, c := range counts {
				t += c[u]
			}
			tot[u] = t
		}
	})
	for u := 1; u <= n; u++ {
		offs[u] += offs[u-1]
	}
	par.ForEach(n, 4096, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			cur := offs[u]
			for _, c := range counts {
				k := c[u]
				c[u] = cur
				cur += k
			}
		}
	})

	// Pass 2: scatter both directions. Ranges re-derives the identical
	// per-worker split, so each worker's cursors cover exactly its entries.
	adj := make([]uint32, offs[n])
	par.Ranges(ne, threads, func(w, lo, hi int) {
		c := counts[w]
		for _, e := range edges[lo:hi] {
			u, v := e[0], e[1]
			if u == v {
				continue
			}
			adj[c[u]] = v
			c[u]++
			adj[c[v]] = u
			c[v]++
		}
	})

	// Sort and dedup every row independently, then compact via prefix sum.
	rowLen := make([]int64, n+1)
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			row := adj[offs[u]:offs[u+1]]
			slices.Sort(row)
			k := 0
			for _, v := range row {
				if k > 0 && v == row[k-1] {
					continue
				}
				row[k] = v
				k++
			}
			rowLen[u] = int64(k)
		}
	})
	par.PrefixSum(rowLen) // rowLen is now the compacted offset array
	newAdj := make([]uint32, rowLen[n])
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			copy(newAdj[rowLen[u]:rowLen[u+1]], adj[offs[u]:])
		}
	})

	g := &Graph{offs: rowLen, adj: newAdj}
	g.refAssignEdgeIDs(threads)
	g.numbered.Do(func() {}) // the tables are in place: nothing left to number
	return g
}

// refAssignEdgeIDs numbers each edge {u,v} (u<v) at its first appearance in a
// row walk in vertex order, mirroring the id onto the (v,u) direction. The
// sequential walk parallelizes exactly: per-row upper-neighbor counts merge
// into per-row id bases by prefix sum, so every id is independent of the
// thread count.
func (g *Graph) refAssignEdgeIDs(threads int) {
	n := g.N()
	g.eid = make([]int64, len(g.adj))
	base := make([]int64, n+1)
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			var cnt int64
			ns := g.Neighbors(uu)
			for i := len(ns) - 1; i >= 0 && ns[i] > uu; i-- {
				cnt++
			}
			base[u] = cnt
		}
	})
	m := par.PrefixSum(base)
	g.edgeU = make([]uint32, m)
	g.edgeV = make([]uint32, m)
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			next := base[u]
			off := g.offs[u]
			for i, v := range g.Neighbors(uu) {
				if v > uu {
					g.eid[off+int64(i)] = next
					g.edgeU[next] = uu
					g.edgeV[next] = v
					next++
				}
			}
		}
	})
	// Mirror ids onto the lower-triangle direction. Every upper id is
	// assigned before the barrier above returns, so the lookups only read.
	par.ForEach(n, 256, threads, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			uu := uint32(u)
			off := g.offs[u]
			for i, v := range g.Neighbors(uu) {
				if v >= uu {
					break // rows are sorted: lower neighbors form a prefix
				}
				id, ok := g.refLookupAssigned(v, uu)
				if !ok {
					panic("graph: missing mirrored edge")
				}
				g.eid[off+int64(i)] = id
			}
		}
	})
}

func (g *Graph) refLookupAssigned(u, v uint32) (int64, bool) {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i < len(ns) && ns[i] == v {
		return g.eid[g.offs[u]+int64(i)], true
	}
	return 0, false
}
