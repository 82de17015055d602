package par_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/par"
)

// parThreads is the worker-count axis every property below is checked
// over: parallel outputs must be bit-identical to the threads=1 run.
var parThreads = []int{1, 2, 4, 8}

// degreeFamilies yields realistic key distributions for the scatter
// properties: per-vertex degrees of the PR 6 generator families, which is
// exactly the input shape the peel bucket builder feeds CountingCSR.
var degreeFamilies = []struct {
	name string
	mk   func() *graph.Graph
}{
	{"complete", func() *graph.Graph { return graph.Complete(10) }},
	{"cliqueChain", func() *graph.Graph { return graph.CliqueChain(4, 6) }},
	{"gnm", func() *graph.Graph { return graph.GnM(220, 800, 1) }},
	{"barabasiAlbert", func() *graph.Graph { return graph.BarabasiAlbert(200, 5, 2) }},
	{"rmat", func() *graph.Graph { return graph.RMAT(8, 4, 0.45, 0.22, 0.22, 3) }},
	{"wattsStrogatz", func() *graph.Graph { return graph.WattsStrogatz(180, 6, 0.1, 4) }},
	{"plantedCommunities", func() *graph.Graph { return graph.PlantedCommunities(5, 18, 0.45, 50, 5) }},
	{"powerLawCluster", func() *graph.Graph { return graph.PowerLawCluster(200, 6, 0.45, 6) }},
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000} {
		for _, grain := range []int{1, 16, 128} {
			for _, threads := range parThreads {
				visits := make([]int32, n)
				par.ForEach(n, grain, threads, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d grain=%d threads=%d: index %d visited %d times", n, grain, threads, i, v)
					}
				}
			}
		}
	}
}

func TestRangesPartition(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1001} {
		for _, threads := range parThreads {
			var mu sync.Mutex
			type span struct{ w, lo, hi int }
			var spans []span
			workers := par.Ranges(n, threads, func(w, lo, hi int) {
				mu.Lock()
				spans = append(spans, span{w, lo, hi})
				mu.Unlock()
			})
			if len(spans) != workers {
				t.Fatalf("n=%d threads=%d: %d spans for %d workers", n, threads, len(spans), workers)
			}
			covered := make([]bool, n)
			for _, s := range spans {
				if s.w < 0 || s.w >= workers {
					t.Fatalf("worker index %d out of [0,%d)", s.w, workers)
				}
				for i := s.lo; i < s.hi; i++ {
					if covered[i] {
						t.Fatalf("index %d covered twice", i)
					}
					covered[i] = true
				}
			}
			for i, c := range covered {
				if !c {
					t.Fatalf("n=%d threads=%d: index %d uncovered", n, threads, i)
				}
			}
		}
	}
}

func TestPrefixSum(t *testing.T) {
	a := []int64{3, 0, 5, 1}
	total := par.PrefixSum(a)
	if total != 9 {
		t.Fatalf("total = %d, want 9", total)
	}
	if want := []int64{0, 3, 3, 8}; !reflect.DeepEqual(a, want) {
		t.Fatalf("prefix = %v, want %v", a, want)
	}
	if got := par.PrefixSum(nil); got != 0 {
		t.Fatalf("empty total = %d", got)
	}
}

// seqScatter is the sequential reference: append each value to its key's
// slice in visit order, then flatten.
func seqScatter(n, numKeys int, visit func(i int, emit func(key int, v int32))) ([]int64, []int32) {
	groups := make([][]int32, numKeys)
	for i := 0; i < n; i++ {
		visit(i, func(key int, v int32) { groups[key] = append(groups[key], v) })
	}
	offs := make([]int64, numKeys+1)
	var items []int32
	for k, g := range groups {
		offs[k] = int64(len(items))
		items = append(items, g...)
	}
	offs[numKeys] = int64(len(items))
	return offs, items
}

func checkScatterMatches(t *testing.T, label string, n, numKeys int, visit func(i int, emit func(key int, v int32))) {
	t.Helper()
	wantOffs, wantItems := seqScatter(n, numKeys, visit)
	for _, threads := range parThreads {
		offs, items := par.ScatterByKey(n, numKeys, threads, visit)
		if !reflect.DeepEqual(offs, wantOffs) {
			t.Fatalf("%s threads=%d: offsets diverge from sequential", label, threads)
		}
		if len(items) != len(wantItems) {
			t.Fatalf("%s threads=%d: %d items, want %d", label, threads, len(items), len(wantItems))
		}
		for i := range items {
			if items[i] != wantItems[i] {
				t.Fatalf("%s threads=%d: items[%d] = %d, want %d (order not bit-identical)", label, threads, i, items[i], wantItems[i])
			}
		}
	}
}

func TestScatterByKeyMatchesSequential(t *testing.T) {
	// Random multi-emit workload: every source emits 0–3 entries.
	rng := rand.New(rand.NewSource(42))
	const n, numKeys = 500, 37
	type entry struct {
		key int
		v   int32
	}
	emits := make([][]entry, n)
	for i := range emits {
		for j := rng.Intn(4); j > 0; j-- {
			emits[i] = append(emits[i], entry{rng.Intn(numKeys), int32(rng.Int31())})
		}
	}
	visit := func(i int, emit func(key int, v int32)) {
		for _, e := range emits[i] {
			emit(e.key, e.v)
		}
	}
	checkScatterMatches(t, "random", n, numKeys, visit)
}

func TestCountingCSRMatchesSequentialOnDegreeFamilies(t *testing.T) {
	for _, fam := range degreeFamilies {
		g := fam.mk()
		keys := g.Degrees()
		numKeys := int(slices.Max(keys)) + 1
		checkScatterMatches(t, fam.name, len(keys), numKeys, func(i int, emit func(int, int32)) {
			emit(int(keys[i]), int32(i))
		})
		// CountingCSR groups must list indices ascending within a bucket.
		offs, items := par.CountingCSR(keys, numKeys, 4)
		for k := 0; k < numKeys; k++ {
			row := items[offs[k]:offs[k+1]]
			for i, c := range row {
				if keys[c] != int32(k) {
					t.Fatalf("%s: cell %d in bucket %d has key %d", fam.name, c, k, keys[c])
				}
				if i > 0 && row[i-1] >= c {
					t.Fatalf("%s: bucket %d not ascending", fam.name, k)
				}
			}
		}
	}
}

func TestCollectMatchesSequential(t *testing.T) {
	n := 777
	emit := func(i int, out []int32) []int32 {
		// Variable fan-out, including zero-emission indices.
		for j := 0; j < i%4; j++ {
			out = append(out, int32(i*10+j))
		}
		return out
	}
	var want []int32
	for i := 0; i < n; i++ {
		want = emit(i, want)
	}
	for _, threads := range parThreads {
		for _, grain := range []int{1, 8, 64, 1024} {
			got := par.Collect(n, grain, threads, func(w, i int, out []int32) []int32 {
				if w < 0 || w >= max(threads, 1) {
					panic(fmt.Sprintf("threads=%d: worker index %d", threads, w))
				}
				return emit(i, out)
			})
			if len(got) != len(want) {
				t.Fatalf("threads=%d grain=%d: len %d, want %d", threads, grain, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("threads=%d grain=%d: out[%d] = %d, want %d", threads, grain, i, got[i], want[i])
				}
			}
		}
	}
}
