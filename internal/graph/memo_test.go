package graph

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type testKey int

// TestMemoSingleFlight: 8 goroutines released at once ask for one key;
// exactly one builds, every one gets the built value, and exactly one
// reports built. A hundred keys, so that a check-then-insert race between
// two first callers gets its chances.
func TestMemoSingleFlight(t *testing.T) {
	g := Complete(4)
	for key := range testKey(100) {
		var builds, builders atomic.Int32
		start, release := make(chan struct{}), make(chan struct{})
		got := make([]*int, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, built := Memo(g, key, func() *int {
					builds.Add(1)
					<-release
					return new(int)
				})
				if built {
					builders.Add(1)
				}
				got[i] = v
			}()
		}
		close(start)
		time.Sleep(time.Millisecond) // let the callers pile up on the build
		close(release)
		wg.Wait()
		if builds.Load() != 1 || builders.Load() != 1 {
			t.Fatalf("key %d: %d builds, %d callers reported built; want 1 and 1", key, builds.Load(), builders.Load())
		}
		for i, v := range got {
			if v == nil || v != got[0] {
				t.Fatalf("key %d: caller %d got %p, caller 0 got %p", key, i, v, got[0])
			}
		}
		if v, built := Memo(g, key, func() *int { t.Fatal("rebuilt a memoized key"); return nil }); built || v != got[0] {
			t.Fatalf("key %d, later call: built=%v value %p, want the memoized %p", key, built, v, got[0])
		}
	}
}

// TestMemoBuildHoldsNoLock: a build held open on one key does not block a
// lookup, or a build, of another key of the same graph.
func TestMemoBuildHoldsNoLock(t *testing.T) {
	g := Complete(4)
	release, started := make(chan struct{}), make(chan struct{})
	go Memo(g, testKey(1), func() int { close(started); <-release; return 1 })
	<-started
	defer close(release)
	done := make(chan int)
	go func() {
		v, _ := Memo(g, testKey(2), func() int { return 2 })
		done <- v
	}()
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("key 2 = %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a lookup of key 2 waited on the build of key 1")
	}
}

// TestMemoPanicIsRetried: a build that panics re-raises its panic to the
// builder and to every caller waiting on it, and is forgotten — the next
// call builds again.
func TestMemoPanicIsRetried(t *testing.T) {
	g := Complete(4)
	release := make(chan struct{})
	var builds atomic.Int32
	recovered := make(chan any, 4)
	var wg, entering sync.WaitGroup
	for range cap(recovered) {
		wg.Add(1)
		entering.Add(1)
		go func() {
			defer wg.Done()
			defer func() { recovered <- recover() }()
			entering.Done()
			Memo(g, testKey(1), func() int {
				builds.Add(1)
				<-release
				panic("boom")
			})
		}()
	}
	entering.Wait()
	time.Sleep(20 * time.Millisecond) // from Memo's entry to its wait on the flight
	close(release)
	wg.Wait()
	close(recovered)
	for r := range recovered {
		if r != "boom" {
			t.Fatalf("a caller recovered %v, want the build's panic", r)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("%d builds for one flight, want 1", builds.Load())
	}
	if v, built := Memo(g, testKey(1), func() int { return 7 }); !built || v != 7 {
		t.Fatalf("after a failed build: built=%v value %d, want a fresh build of 7", built, v)
	}
}

// TestPatchStartsWithEmptyMemo: a patched graph shares no memoized value
// with the graph it was patched from, nor does a rebuild of the same edges.
func TestPatchStartsWithEmptyMemo(t *testing.T) {
	g := Build(3, [][2]uint32{{0, 1}})
	if _, built := Memo(g, testKey(1), func() int { return 1 }); !built {
		t.Fatal("first call did not build")
	}
	for name, h := range map[string]*Graph{
		"Patch": g.Patch(3, map[uint32][]uint32{0: {1, 2}, 2: {0}}),
		"Build": Build(3, g.Edges()),
	} {
		if v, built := Memo(h, testKey(1), func() int { return 2 }); !built || v != 2 {
			t.Fatalf("%s: built=%v value %d, want its own build", name, built, v)
		}
	}
	if v, built := Memo(g, testKey(1), func() int { return 3 }); built || v != 1 {
		t.Fatalf("the original lost its value: built=%v value %d", built, v)
	}
}
