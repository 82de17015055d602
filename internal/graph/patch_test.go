package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestPatchMatchesApplyEdits: replacing the rows an edit batch touched
// yields, bit for bit, the graph the map-and-Build rebuild of ApplyEdits
// yields — offsets, rows, edge ids and endpoint tables.
func TestPatchMatchesApplyEdits(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := GnM(n, rng.Intn(2*n), seed)
		edits := make([]EdgeEdit, rng.Intn(24))
		for i := range edits {
			// Endpoints run a little past N() so some inserts grow the graph.
			edits[i] = EdgeEdit{Add: rng.Intn(2) == 0, U: uint32(rng.Intn(g.N() + 3)), V: uint32(rng.Intn(g.N() + 3))}
		}
		want := ApplyEdits(g, g.N()+rng.Intn(3), edits)
		rows := map[uint32][]uint32{}
		for _, ed := range edits {
			for _, u := range []uint32{ed.U, ed.V} {
				if int(u) < want.N() {
					rows[u] = slices.Clone(want.Neighbors(u))
				}
			}
		}
		// Both number their edges here, on first use, and must agree on that too.
		if got := g.Patch(want.N(), rows); !reflect.DeepEqual(got.ids(), want.ids()) {
			t.Fatalf("seed %d: Patch differs from ApplyEdits (n=%d m=%d vs n=%d m=%d)", seed, got.N(), got.M(), want.N(), want.M())
		}
	}
}

func TestPatchRejectsWhatItCannotBuild(t *testing.T) {
	g := Build(3, [][2]uint32{{0, 1}})
	for name, call := range map[string]func(){
		"shrink":     func() { g.Patch(2, nil) },
		"asymmetric": func() { g.Patch(3, map[uint32][]uint32{2: {0}}) },
		"oneSided":   func() { g.Patch(3, map[uint32][]uint32{2: {0}, 0: {1}}) },
		"lostHalf":   func() { g.Patch(3, map[uint32][]uint32{0: {}}) },
		"unsorted":   func() { g.Patch(3, map[uint32][]uint32{0: {2, 1}, 2: {0}}) },
		"selfLoop":   func() { g.Patch(3, map[uint32][]uint32{2: {2}}) },
		"duplicate":  func() { g.Patch(3, map[uint32][]uint32{0: {1, 2, 2}, 2: {0}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
