package par_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nucleus/internal/par"
)

// parThreads is the worker-count axis every property below is checked
// over: parallel outputs must be bit-identical to the threads=1 run.
var parThreads = []int{1, 2, 4, 8}

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
