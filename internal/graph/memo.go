package graph

// flight is one memoized-or-in-progress value; done is closed once val is
// the built value, or, when failed, what the build panicked with.
type flight struct {
	done   chan struct{}
	val    any
	failed bool
}

// Memo returns the value g holds under key, calling build on the first call
// for key: the graph's one store of values derived from it, which dies with
// g (Build and Patch return graphs with an empty memo). Calls are
// single-flight per key — a concurrent caller waits for the one build and
// gets its value with built false — and the build holds no lock, so it
// never blocks a lookup of another key. A build that panics is forgotten,
// and its panic re-raised to the builder and every waiter. Each package
// keys its values with a comparable key type of its own.
func Memo[V any](g *Graph, key any, build func() V) (v V, built bool) {
	fv, ok := g.memo.Load(key)
	if !ok {
		fv, ok = g.memo.LoadOrStore(key, &flight{done: make(chan struct{}), failed: true})
	}
	f := fv.(*flight)
	if ok {
		<-f.done
		if f.failed {
			panic(f.val)
		}
		return f.val.(V), false
	}
	defer func() {
		if f.failed {
			f.val = recover() // nil under runtime.Goexit: the waiters' panic(nil) still fails them
			g.memo.Delete(key)
		}
		close(f.done)
		if f.failed && f.val != nil {
			panic(f.val)
		}
	}()
	v = build()
	f.val, f.failed = v, false
	return v, true
}
