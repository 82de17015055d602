package dynamic

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// model is the independent statement of what a Graph holds: a vertex count
// and an edge set, edited by the documented rules (an insert grows the
// graph to cover its endpoints; self-loops, duplicates and removes of an
// absent or out-of-range edge change nothing) and turned into a CSR by
// graph.Build, never by the patch primitive under test.
type model struct {
	n   int
	set map[[2]uint32]struct{}
}

func newModel(n int) *model { return &model{n: n, set: map[[2]uint32]struct{}{}} }

func key(u, v uint32) [2]uint32 { return [2]uint32{min(u, v), max(u, v)} }

func (m *model) insert(u, v uint32) bool {
	if _, dup := m.set[key(u, v)]; u == v || dup {
		return false
	}
	m.n = max(m.n, int(max(u, v))+1)
	m.set[key(u, v)] = struct{}{}
	return true
}

func (m *model) remove(u, v uint32) bool {
	_, ok := m.set[key(u, v)]
	delete(m.set, key(u, v))
	return ok
}

func (m *model) build() *graph.Graph {
	edges := make([][2]uint32, 0, len(m.set))
	for e := range m.set {
		edges = append(edges, e)
	}
	return graph.Build(m.n, edges)
}

// check publishes d and compares it with the model: the patched CSR is
// bit-identical to Build of the same edge set (so truss cell ids stay
// canonical), the maintained κ is the peeled κ. Returns both graphs.
func (m *model) check(t *testing.T, d *Graph, context string) (got, want *graph.Graph) {
	t.Helper()
	got, want = d.Static(), m.build()
	got.Edges() // number the edges of both: ids are assigned on first use
	want.Edges()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Static() differs from graph.Build of the same edge set (n=%d m=%d vs n=%d m=%d)",
			context, got.N(), got.M(), want.N(), want.M())
	}
	if d.N() != m.n || d.M() != int64(len(m.set)) {
		t.Fatalf("%s: shape (%d,%d), want (%d,%d)", context, d.N(), d.M(), m.n, len(m.set))
	}
	if kappa := peel.Run(nucleus.NewCore(want)).Kappa; !slices.Equal(d.CoreNumbers(), kappa) {
		t.Fatalf("%s: maintained κ %v, peel %v", context, d.CoreNumbers(), kappa)
	}
	return got, want
}

// edit applies one edit to both sides, compares what they report, and
// returns it.
func (m *model) edit(t *testing.T, d *Graph, add bool, u, v uint32) bool {
	t.Helper()
	var got, want bool
	if add {
		got, want = d.InsertEdge(u, v), m.insert(u, v)
	} else {
		got, want = d.RemoveEdge(u, v), m.remove(u, v)
	}
	if got != want {
		t.Fatalf("edit add=%v (%d,%d) = %v, want %v", add, u, v, got, want)
	}
	if d.HasEdge(u, v) != (add && u != v) || d.HasEdge(v, u) != (add && u != v) {
		t.Fatalf("HasEdge(%d,%d) after add=%v", u, v, add)
	}
	return got
}

// TestStaticMatchesBuild: seeded random scripts, published after every
// batch, over the cases the overlay treats differently — rows read from the
// base, rows owned since the last publish, vertices past the base.
func TestStaticMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(30)
		m := newModel(n)
		d := New(n)
		for batch := 0; batch < 30; batch++ {
			for i := 0; i < 16; i++ {
				u, v := uint32(rng.Intn(m.n)), uint32(rng.Intn(m.n))
				m.edit(t, d, rng.Intn(3) > 0, u, v)
			}
			switch batch {
			case 10: // trailing isolated vertices, then an edge among them
				m.n += 5
				d.Grow(m.n)
				m.edit(t, d, true, uint32(m.n-1), uint32(m.n-3))
			case 15: // an insert at a vertex the base does not have
				m.edit(t, d, true, 0, uint32(m.n+2))
			case 20: // a row emptied ...
				for v := 0; v < m.n; v++ {
					m.edit(t, d, false, 1, uint32(v))
				}
				if d.Degree(1) != 0 {
					t.Fatalf("emptied row has degree %d", d.Degree(1))
				}
			case 21: // ... and refilled after the publish in between
				m.edit(t, d, true, 1, 2)
				m.edit(t, d, true, 1, uint32(m.n-1))
			}
			g, _ := m.check(t, d, "after batch")
			if again := d.Static(); again != g {
				t.Fatal("Static() with no edit in between built a second graph")
			}
		}
	}
}

// TestPublishIsCopyOnWrite: a published graph is never written through,
// whatever later batches do to the rows it holds.
func TestPublishIsCopyOnWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sg := graph.PowerLawCluster(60, 3, 0.5, 5)
	m := newModel(sg.N())
	for _, e := range sg.Edges() {
		m.insert(e[0], e[1])
	}
	d := FromStatic(sg)
	var kept, built []*graph.Graph
	for batch := 0; batch < 12; batch++ {
		for i := 0; i < 16; i++ {
			m.edit(t, d, rng.Intn(2) == 0, uint32(rng.Intn(m.n)), uint32(rng.Intn(m.n+1)))
		}
		got, want := m.check(t, d, "batch")
		kept, built = append(kept, got), append(built, want)
	}
	rebuilt := graph.Build(sg.N(), sg.Edges())
	rebuilt.Edges() // numbered, as sg is
	if !reflect.DeepEqual(sg, rebuilt) {
		t.Fatal("the graph the overlay started from was written through")
	}
	for i := range kept {
		if !reflect.DeepEqual(kept[i], built[i]) {
			t.Fatalf("version %d was written through by a later batch", i)
		}
	}
}

// TestOutOfRangeEndpoints pins the one rule for an endpoint at or past N():
// it names no vertex, so HasEdge and RemoveEdge say false whichever side it
// is on, and InsertEdge grows the graph to cover it.
func TestOutOfRangeEndpoints(t *testing.T) {
	for _, c := range []struct{ u, v uint32 }{{1, 7}, {7, 1}, {7, 9}, {3, 3}, {1, 3}} {
		d := New(3)
		d.InsertEdge(0, 1)
		if d.HasEdge(c.u, c.v) {
			t.Fatalf("HasEdge(%d,%d) on 3 vertices", c.u, c.v)
		}
		if d.RemoveEdge(c.u, c.v) {
			t.Fatalf("RemoveEdge(%d,%d) on 3 vertices", c.u, c.v)
		}
		if d.N() != 3 || d.M() != 1 {
			t.Fatalf("a read or a no-op remove changed the shape to (%d,%d)", d.N(), d.M())
		}
		want := int(max(c.u, c.v)) + 1
		if c.u == c.v { // a self-loop is rejected before it can grow anything
			want = 3
		}
		if got := d.InsertEdge(c.u, c.v); got != (c.u != c.v) {
			t.Fatalf("InsertEdge(%d,%d) = %v", c.u, c.v, got)
		}
		if d.N() != want || d.HasEdge(c.u, c.v) != (c.u != c.v) {
			t.Fatalf("after InsertEdge(%d,%d): N = %d, want %d", c.u, c.v, d.N(), want)
		}
		assertKappa(t, d, "grown by insert")
	}
}

// Cost gates, in the style of the Test*ZeroAlloc ones: what starting an
// overlay and publishing a batch allocate must not depend on the graph.

func TestFromStaticCoresAllocsIndependentOfGraph(t *testing.T) {
	for _, n := range []int{100, 4000} {
		sg := graph.PowerLawCluster(n, 4, 0.5, 3)
		kappa := peel.Run(nucleus.NewCore(sg)).Kappa
		// The Graph, its κ copy, the empty touched-rows map.
		if a := testing.AllocsPerRun(20, func() { FromStaticCores(sg, kappa) }); a > 4 {
			t.Fatalf("n=%d m=%d: FromStaticCores allocates %v times, want a constant <= 4", n, sg.M(), a)
		}
	}
}

func TestRepairAllocsIndependentOfGraph(t *testing.T) {
	for _, n := range []int{100, 4000} {
		d := FromStatic(graph.PowerLawCluster(n, 4, 0.5, 3))
		u, v := uint32(0), uint32(n-1)
		for d.HasEdge(u, v) {
			v--
		}
		// The first pair copies both rows and grows the scratch; every pair
		// after it reuses them.
		pair := func() {
			d.InsertEdge(u, v)
			d.RemoveEdge(u, v)
		}
		pair()
		if a := testing.AllocsPerRun(20, pair); a != 0 {
			t.Fatalf("n=%d: an insert/remove pair on owned rows allocates %v times, want 0", n, a)
		}
	}
}

func TestStaticAllocsIndependentOfGraph(t *testing.T) {
	for _, n := range []int{100, 4000} {
		d := FromStatic(graph.PowerLawCluster(n, 4, 0.5, 3))
		for i := uint32(0); i < 16; i++ {
			d.InsertEdge(i, uint32(n)-1-i)
		}
		// AllocsPerRun would publish twice and the second publish has nothing
		// to do; count the one call the way it counts.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.Static()
		runtime.ReadMemStats(&after)
		// The five arrays of the CSR and its header, the sorted touched list,
		// the row cursors.
		if a := after.Mallocs - before.Mallocs; a > 10 {
			t.Fatalf("n=%d: publishing a 16-edit batch allocates %d times, want a constant <= 10", n, a)
		}
	}
}

// FuzzDynamicEdits: any edit script — grows, publishes in the middle,
// endpoints past the vertex count, self-loops, duplicates — leaves κ equal
// to the reference repair after every edit and to a peel at every publish,
// Static() equal to Build, and never panics. The script is replayed a
// second time the way a replica or a recovery installs it: each batch (the
// edits between two publishes) as row-only edits plus the first graph's
// ChangedCores, after which κ must be identical and the published CSR
// bit-identical. Three bytes an op; vertex ids are bytes, so the graph
// stays under 256 vertices, and a script is cut at 300 ops so one input
// costs at most 300 peels.
func FuzzDynamicEdits(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 0, 2, 4, 0, 0, 2, 0, 1, 0, 2, 200, 3, 9, 0, 1, 200, 2})
	f.Add([]byte{0, 7, 1, 2, 1, 7, 2, 7, 1, 0, 5, 5, 4, 0, 0, 0, 7, 1})
	f.Add([]byte{3, 9, 0, 0, 0, 8, 4, 0, 0, 3, 12, 0, 4, 0, 0})                           // grows, alone and beside an edit
	f.Add([]byte{0, 0, 1, 0, 1, 2, 4, 0, 0, 0, 1, 1, 0, 0, 1, 2, 5, 6, 2, 9, 0, 4, 0, 0}) // self-loop, duplicate add, absent removes
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 0, 2, 4, 0, 0, 0, 1, 3, 0, 0, 3, 2, 1, 3, 4, 0, 0}) // an edge added and removed in one batch
	f.Add([]byte{0, 0, 1, 0, 2, 3, 4, 0, 0, 0, 1, 2, 4, 0, 0})                            // a batch that moves no κ
	f.Fuzz(func(t *testing.T, script []byte) {
		m := newModel(3)
		d, ref, rows := New(3), New(3), New(3)
		type op struct {
			code byte // script[0] % 5: 0, 1 add, 2 remove, 3 grow
			u, v uint32
			did  bool // what the repairing edit returned
		}
		var batch []op // since the last publish
		publish := func(context string) {
			changed := d.ChangedCores()
			for _, o := range batch {
				var did bool
				switch o.code {
				case 0, 1:
					did = rows.AddRows(o.u, o.v)
				case 2:
					did = rows.RemoveRows(o.u, o.v)
				case 3:
					rows.Grow(int(o.u))
					continue
				}
				if did != o.did {
					t.Fatalf("%s: row-only edit %+v returned %v", context, o, did)
				}
			}
			batch = batch[:0]
			if err := rows.SetCores(changed); err != nil {
				t.Fatalf("%s: installing %v: %v", context, changed, err)
			}
			got, _ := m.check(t, d, context)
			if !slices.Equal(rows.CoreNumbers(), d.CoreNumbers()) {
				t.Fatalf("%s: installed κ %v, repaired %v (list %v)", context, rows.CoreNumbers(), d.CoreNumbers(), changed)
			}
			installed := rows.Static()
			installed.Edges()
			if !reflect.DeepEqual(installed, got) {
				t.Fatalf("%s: the row-only replay's CSR differs from the repaired graph's", context)
			}
		}
		for script = script[:min(len(script), 900)]; len(script) >= 3; script = script[3:] {
			u, v := uint32(script[1]), uint32(script[2])
			switch code := script[0] % 5; code {
			case 0, 1, 2:
				did := m.edit(t, d, code < 2, u, v)
				matchRef(t, d, ref, code < 2, u, v, did)
				batch = append(batch, op{code, u, v, did})
			case 3:
				m.n = max(m.n, int(u))
				d.Grow(int(u))
				ref.Grow(int(u))
				batch = append(batch, op{code: code, u: u})
			case 4:
				publish("mid-script publish")
			}
		}
		publish("end of script")
	})
}

// TestSetCoresRefusesForeignList: a list naming a vertex past the graph, a
// negative κ or a κ above the vertex's degree is refused, and κ is left as
// it was, even for the entries before the bad one.
func TestSetCoresRefusesForeignList(t *testing.T) {
	d := FromStatic(graph.Complete(4)) // κ = 3 everywhere, degree 3
	for _, tc := range []struct {
		cores []CoreChange
		want  string
	}{
		{[]CoreChange{{0, 2}, {4, 1}}, "vertex 4, past the vertex count 4"},
		{[]CoreChange{{0, 2}, {1, -1}}, "negative core number -1 of vertex 1"},
		{[]CoreChange{{0, 2}, {2, 4}}, "core number 4 of vertex 2, above its degree 3"},
	} {
		err := d.SetCores(tc.cores)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SetCores(%v) = %v, want an error containing %q", tc.cores, err, tc.want)
		}
		if !slices.Equal(d.CoreNumbers(), []int32{3, 3, 3, 3}) {
			t.Fatalf("SetCores(%v) changed κ to %v", tc.cores, d.CoreNumbers())
		}
	}
	if err := d.SetCores([]CoreChange{{0, 0}, {3, 3}}); err != nil || !slices.Equal(d.CoreNumbers(), []int32{0, 3, 3, 3}) {
		t.Fatalf("SetCores of a fitting list: %v, κ %v", err, d.CoreNumbers())
	}
}
