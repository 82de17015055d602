package hierarchy

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// family returns the instance of one family with stored rows and one with
// discovered rows: the on-the-fly instance, or for core the CSR discovered.
func family(g *graph.Graph, sel int) (stored, onTheFly nucleus.Instance) {
	switch sel % 3 {
	case 0:
		return nucleus.NewCore(g), nucleustest.Discovered(nucleus.NewCore(g))
	case 1:
		return nucleus.NewFlatTruss(g, 1), nucleus.NewTruss(g)
	}
	return nucleus.NewFlatN34(g, 1), nucleus.NewN34(g)
}

// bruteVertices is the pointer forest's Vertices: a walk of the subtree
// through Children and Cells into a map, then a sort.
func bruteVertices(f *Forest, n Node) []uint32 {
	set := make(map[uint32]struct{})
	var buf []uint32
	var walk func(Node)
	walk = func(nd Node) {
		for _, c := range f.Cells(nd) {
			buf = f.Inst.CellVertices(c, buf[:0])
			for _, v := range buf {
				set[v] = struct{}{}
			}
		}
		for _, ch := range f.Children(nd) {
			walk(ch)
		}
	}
	walk(n)
	out := make([]uint32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// bruteDensity is the pointer forest's Density over a vertex set.
func bruteDensity(g *graph.Graph, vs []uint32) float64 {
	if len(vs) < 2 {
		return 0
	}
	in := make(map[uint32]struct{}, len(vs))
	for _, v := range vs {
		in[v] = struct{}{}
	}
	edges := 0
	for _, u := range vs {
		for _, v := range g.Neighbors(u) {
			if _, ok := in[v]; ok && v > u {
				edges++
			}
		}
	}
	nv := float64(len(vs))
	return 2 * float64(edges) / (nv * (nv - 1))
}

func forestJSON(t *testing.T, f *Forest, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkForest holds one forest to everything the package promises: the
// array layout, the documented order, the partition at every threshold
// against peelComponents, the measurements against the brute-force
// recount, equality with the forest of the family's other instance, and
// equality, field for field, with refBuild's forest.
func checkForest(t *testing.T, g *graph.Graph, inst, twin nucleus.Instance, labels []int32) {
	t.Helper()
	f := Build(inst, labels)
	if ref := refBuild(inst, labels); !reflect.DeepEqual(f, ref) {
		t.Fatalf("Build and refBuild differ:\n%+v\n%+v", f, ref)
	}
	nn := f.NumNodes()

	perm := slices.Clone(f.cells)
	slices.Sort(perm)
	for c, p := range perm {
		if int(p) != c {
			t.Fatalf("cells is not a permutation: %v", f.cells)
		}
	}
	total := 0
	for _, r := range f.Roots() {
		if f.Parent[r] != None {
			t.Fatalf("root %d has parent %d", r, f.Parent[r])
		}
		total += f.SubtreeCells(r)
	}
	if total != len(labels) {
		t.Fatalf("roots cover %d of %d cells", total, len(labels))
	}
	for id := 0; id < nn; id++ {
		n := Node(id)
		own := f.Cells(n)
		if len(own) == 0 || !slices.IsSorted(own) {
			t.Fatalf("node %d: own cells %v", n, own)
		}
		for _, c := range own {
			if labels[c] != f.K[n] || f.Find(c) != n {
				t.Fatalf("node %d (K=%d) holds cell %d: label %d, Find %d", n, f.K[n], c, labels[c], f.Find(c))
			}
		}
		// Depth-first layout: own cells, then each child's span in order.
		span := slices.Clone(own)
		for _, ch := range f.Children(n) {
			if ch >= n || f.Parent[ch] != n || f.K[ch] <= f.K[n] {
				t.Fatalf("child %d (K=%d, parent %d) of node %d (K=%d)", ch, f.K[ch], f.Parent[ch], n, f.K[n])
			}
			span = append(span, f.Subtree(ch)...)
		}
		if !slices.Equal(span, f.Subtree(n)) || len(span) != f.SubtreeCells(n) {
			t.Fatalf("node %d: subtree %v, own + children %v", n, f.Subtree(n), span)
		}
		// Creation order: descending K, then ascending smallest own cell.
		if id > 0 {
			prev := Node(id - 1)
			if f.K[prev] < f.K[n] || f.K[prev] == f.K[n] && f.Cells(prev)[0] >= own[0] {
				t.Fatalf("nodes %d (K=%d, cell %d) and %d (K=%d, cell %d) out of order",
					prev, f.K[prev], f.Cells(prev)[0], n, f.K[n], own[0])
			}
		}
	}

	levels := append(slices.Clone(labels), 0)
	levels = append(levels, slices.Max(levels)+1) // above every label: no nucleus
	slices.Sort(levels)
	for _, k := range slices.Compact(levels) {
		got := make([]int32, len(labels))
		for c := range got {
			got[c] = -1
		}
		for i, n := range f.NucleiAt(k) {
			for _, c := range f.Subtree(n) {
				got[c] = int32(i)
			}
		}
		if want := peelComponents(inst, labels, k); !samePartition(want, got) {
			t.Fatalf("k=%d: nuclei %v, components %v", k, got, want)
		}
	}

	st, bare := f.Stats(g), f.Stats(nil)
	for id := 0; id < nn; id++ {
		n := Node(id)
		vs := bruteVertices(f, n)
		if !slices.Equal(f.Vertices(n), vs) || int(st.Vertices[n]) != len(vs) || int(bare.Vertices[n]) != len(vs) {
			t.Fatalf("node %d: vertices %v, counted %d and %d, recount %v", n, f.Vertices(n), st.Vertices[n], bare.Vertices[n], vs)
		}
		if d := bruteDensity(g, vs); st.Density(n) != d || bare.Density(n) != 0 {
			t.Fatalf("node %d: density %v (%v without a graph), recount %v", n, st.Density(n), bare.Density(n), d)
		}
	}

	ft := Build(twin, labels)
	ft.Inst = f.Inst
	if !reflect.DeepEqual(f, ft) {
		t.Fatalf("forests of the stored and the on-the-fly instance differ:\n%+v\n%+v", f, ft)
	}
	if a, b := forestJSON(t, f, g), forestJSON(t, Build(inst, labels), g); !bytes.Equal(a, b) {
		t.Fatalf("two builds, two bodies:\n%s\n%s", a, b)
	}
}

// FuzzForest: any small graph, any family, the stored or the on-the-fly
// instance, the peeled κ or an arbitrary non-negative labelling (a budgeted
// τ is not a valid κ, and /hierarchy?maxSweeps= serves its forest).
func FuzzForest(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4}, uint8(0), []byte{})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 3}, uint8(4), []byte{2, 0, 1})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 4, 5, 5, 6, 6, 4}, uint8(2), []byte{5, 5, 1, 0, 3})
	f.Add([]byte{}, uint8(1), []byte{9})
	f.Fuzz(func(t *testing.T, data []byte, sel uint8, lab []byte) {
		var edges [][2]uint32
		for i := 0; i+1 < len(data) && len(edges) < 64; i += 2 {
			edges = append(edges, [2]uint32{uint32(data[i] % 16), uint32(data[i+1] % 16)})
		}
		g := graph.Build(-1, edges)
		inst, twin := family(g, int(sel))
		if sel/3%2 == 1 {
			inst, twin = twin, inst
		}
		labels := peel.Run(inst).Kappa
		for c := range labels {
			if len(lab) > 0 {
				labels[c] = int32(lab[c%len(lab)] % 8)
			}
		}
		checkForest(t, g, inst, twin, labels)
	})
}

// TestForestInvariants runs the fuzzer's checks on graphs with real depth.
func TestForestInvariants(t *testing.T) {
	for i, g := range []*graph.Graph{
		graph.Nucleus34Toy(),
		graph.PlantedCommunities(4, 10, 0.6, 25, 5),
		graph.RMAT(6, 5, 0.57, 0.19, 0.19, 9),
	} {
		for sel := 0; sel < 3; sel++ {
			inst, twin := family(g, sel)
			kappa := peel.Run(inst).Kappa
			checkForest(t, g, inst, twin, kappa)
			checkForest(t, g, twin, inst, kappa)
			tau := slices.Clone(kappa) // not a κ of any graph
			for c := range tau {
				tau[c] = (tau[c]*7 + int32(c+i)) % 5
			}
			checkForest(t, g, inst, twin, tau)
		}
	}
}

// TestBuildMatchesRefOnFamilies: over nine generator families, on Core,
// the stored truss, the stored (3,4) and the on-the-fly Truss instance,
// Build's forest equals refBuild's field for field, for the peeled κ and
// for a budgeted τ (two SND sweeps, and one AND sweep).
func TestBuildMatchesRefOnFamilies(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnm":      graph.GnM(300, 1500, 1),
		"ba":       graph.BarabasiAlbert(300, 4, 2),
		"rmat":     graph.RMAT(9, 8, 0.57, 0.19, 0.19, 3),
		"ws":       graph.WattsStrogatz(300, 6, 0.1, 4),
		"planted":  graph.PlantedCommunities(6, 25, 0.5, 60, 5),
		"powerlaw": graph.PowerLawCluster(300, 5, 0.5, 6),
		"lognorm":  graph.LogNormalDegrees(300, 1.5, 0.8, 7),
		"chain":    graph.CliqueChain(4, 6),
		"turan":    graph.Turan(20, 4),
	}
	for gname, g := range graphs {
		for iname, inst := range map[string]nucleus.Instance{
			"core":         nucleus.NewCore(g),
			"stored truss": nucleus.NewFlatTruss(g, 1),
			"stored (3,4)": nucleus.NewFlatN34(g, 1),
			"truss":        nucleus.NewTruss(g),
		} {
			for lname, labels := range map[string][]int32{
				"κ":     peel.Run(inst).Kappa,
				"SND τ": localhi.Snd(inst, localhi.Options{MaxSweeps: 2}).Tau,
				"AND τ": localhi.And(inst, localhi.Options{MaxSweeps: 1}).Tau,
			} {
				if f, ref := Build(inst, labels), refBuild(inst, labels); !reflect.DeepEqual(f, ref) {
					t.Errorf("%s, %s, %s: Build and refBuild differ:\n%+v\n%+v", gname, iname, lname, f, ref)
				}
			}
		}
	}
}

// canonical decodes a WriteJSON body and re-encodes it with every sibling
// group (the roots included) sorted, so two bodies compare equal exactly
// when they describe the same forest.
func canonical(t *testing.T, body []byte) string {
	t.Helper()
	var roots []jsonNode
	if err := json.Unmarshal(body, &roots); err != nil {
		t.Fatal(err)
	}
	var canon func(ns []jsonNode) string
	canon = func(ns []jsonNode) string {
		keys := make([]string, len(ns))
		for i, n := range ns {
			kids := n.Children
			n.Children = nil
			head, err := json.Marshal(n)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = string(head) + canon(kids)
		}
		sort.Strings(keys)
		return "[" + strings.Join(keys, ",") + "]"
	}
	return canon(roots)
}

// goldenCases are the fixed graphs behind testdata/*.json, which hold the
// pointer forest's WriteJSON output for them (generated at the commit
// before the flat forest replaced it).
func goldenCases() []goldenCase {
	pc := graph.PlantedCommunities(5, 12, 0.55, 20, 11)
	rm := graph.RMAT(7, 4, 0.57, 0.19, 0.19, 3)
	return []goldenCase{{"core", rm, 0}, {"truss", pc, 1}, {"n34", pc, 2}}
}

type goldenCase struct {
	name string
	g    *graph.Graph
	sel  int // family's argument
}

// TestGoldenJSON proves the response compatible with the pointer forest's:
// same nodes, counts and densities, for the stored and the on-the-fly
// instance of each family — everything but sibling order, which the old
// builder left to map iteration.
func TestGoldenJSON(t *testing.T) {
	for _, c := range goldenCases() {
		want, err := os.ReadFile("testdata/" + c.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		stored, onTheFly := family(c.g, c.sel)
		for _, inst := range []nucleus.Instance{stored, onTheFly} {
			got := forestJSON(t, Build(inst, peel.Run(inst).Kappa), c.g)
			if canonical(t, got) != canonical(t, want) {
				t.Errorf("%s: forest differs from the golden file\n got %s\nwant %s", c.name, canonical(t, got), canonical(t, want))
			}
		}
	}
}

// TestBuildDeterministic: two builds of one κ give the same bytes, on
// graphs with enough siblings per level that map iteration order showed.
func TestBuildDeterministic(t *testing.T) {
	for _, c := range goldenCases() {
		inst, _ := family(c.g, c.sel)
		kappa := peel.Run(inst).Kappa
		first := forestJSON(t, Build(inst, kappa), c.g)
		for i := 0; i < 5; i++ {
			if !bytes.Equal(first, forestJSON(t, Build(inst, kappa), c.g)) {
				t.Fatalf("%s: build %d encodes differently from the first", c.name, i+2)
			}
		}
	}
}

// TestBuildAllocsConstant: Build makes a fixed set of slices, however
// many cells and κ levels there are.
func TestBuildAllocsConstant(t *testing.T) {
	allocs := func(inst nucleus.Instance) float64 {
		kappa := peel.Run(inst).Kappa
		return testing.AllocsPerRun(5, func() { Build(inst, kappa) })
	}
	small, large := graph.PlantedCommunities(3, 12, 0.5, 20, 1), graph.PlantedCommunities(12, 40, 0.4, 600, 1)
	for sel, name := range []string{"core", "flat truss"} {
		s, _ := family(small, sel)
		l, _ := family(large, sel)
		as, al := allocs(s), allocs(l)
		t.Logf("%s: %v allocations on %d cells, %v on %d", name, as, s.NumCells(), al, l.NumCells())
		if as != al || al > 24 {
			t.Errorf("%s: %v allocations on %d cells, %v on %d (want equal and at most 24)", name, as, s.NumCells(), al, l.NumCells())
		}
	}
}

func TestBuildRejectsBadLabels(t *testing.T) {
	inst := nucleus.NewCore(graph.Complete(3))
	for name, labels := range map[string][]int32{"short": {2, 2}, "negative": {2, -1, 2}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "hierarchy:") {
					t.Errorf("%s labels: recovered %q, want a hierarchy: panic", name, msg)
				}
			}()
			Build(inst, labels)
		}()
	}
}

// TestBuildHugeLabels: labels far above the cell count — 2³⁰, the largest
// int32 — build the forest of small labels in the same order, with the
// labels themselves as K, in under 1 MiB.
func TestBuildHugeLabels(t *testing.T) {
	inst := nucleus.NewCore(graph.Complete(3))
	for _, c := range []struct{ huge, small []int32 }{
		{[]int32{0, 1 << 30, 2}, []int32{0, 2, 1}},
		{[]int32{math.MaxInt32, 0, math.MaxInt32}, []int32{1, 0, 1}},
		{[]int32{math.MaxInt32, math.MaxInt32, math.MaxInt32}, []int32{0, 0, 0}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f := Build(inst, c.huge)
		runtime.ReadMemStats(&after)
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
			t.Errorf("labels %v: Build allocated %d bytes on %d cells", c.huge, bytes, len(c.huge))
		}
		want := Build(inst, c.small)
		for n := range want.K {
			want.K[n] = c.huge[want.Cells(Node(n))[0]]
		}
		if !reflect.DeepEqual(f, want) {
			t.Errorf("labels %v: forest\n%+v\nwant that of %v\n%+v", c.huge, f, c.small, want)
		}
	}
}
