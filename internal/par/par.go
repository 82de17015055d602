// Package par provides the shard-parallel primitives shared by every
// parallel O(n+m) stage in the tree: grained parallel-for loops, fixed
// per-worker ranges, prefix sums and order-preserving parallel gathers.
//
// Every primitive here is *deterministic by construction*: the output is
// bit-identical at every thread count (including 1), so callers can prove
// parallel == sequential with a differential test instead of reasoning
// about schedules. Ranges splits by the worker count alone, so per-worker
// results merge in a fixed order, and Collect gathers in chunk order:
// dynamically scheduled chunks each append to their own buffer, and
// buffers are concatenated in chunk order, reproducing the sequential
// emission order regardless of which worker ran which chunk when.
//
// Workers are plain goroutines claiming grain-sized chunks off an atomic
// cursor; there are no pools or channels to manage, and a threads <= 1
// call runs entirely on the calling goroutine with zero synchronization.
package par

import (
	"sync"
	"sync/atomic"
)

// workersFor clamps a requested thread count to the amount of work: at
// least one worker, at most one per grain-sized chunk of n items.
func workersFor(n, grain, threads int) int {
	if threads < 1 {
		threads = 1
	}
	if grain < 1 {
		grain = 1
	}
	if max := (n + grain - 1) / grain; threads > max {
		threads = max
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// ForEach runs body over [0, n) split into grain-sized chunks claimed
// dynamically by up to threads workers. body must be safe to call
// concurrently on disjoint ranges. threads <= 1 (or n within one grain)
// runs inline on the calling goroutine.
func ForEach(n, grain, threads int, body func(lo, hi int)) {
	ForEachWorker(n, grain, threads, func(_, lo, hi int) { body(lo, hi) })
}

// ForEachWorker is ForEach with the worker index passed to body, for
// callers that accumulate into per-worker state (scratch lists, counters).
// Worker indices are dense in [0, workers) where workers is the clamped
// thread count; which chunks a worker processes is scheduling-dependent,
// so per-worker state must be order-insensitive or re-ordered afterwards.
func ForEachWorker(n, grain, threads int, body func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := workersFor(n, grain, threads)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}

// Ranges splits [0, n) into one contiguous range per worker and calls
// body(w, lo, hi) for each. The split depends only on n and the clamped
// worker count, so per-worker results indexed by w can be merged in a
// deterministic order (the basis of the two-pass CSR scatters). Returns the
// worker count used. threads <= 1 runs body(0, 0, n) inline.
func Ranges(n, threads int, body func(w, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
	}
	if threads == 1 {
		body(0, 0, n)
		return 1
	}
	chunk := (n + threads - 1) / threads
	var wg sync.WaitGroup
	workers := 0
	for w := 0; w < threads; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		workers++
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return workers
}

// PrefixSum converts counts to exclusive prefix sums in place — after the
// call a[i] holds the sum of the original a[0:i] — and returns the total.
// This is the count→offset conversion of every CSR build in the tree.
func PrefixSum(a []int64) int64 {
	var sum int64
	for i, v := range a {
		a[i] = sum
		sum += v
	}
	return sum
}

// Collect gathers the emissions of a loop over [0, n) in parallel while
// preserving the sequential emission order: emit(w, i, out) must append
// index i's outputs to out and return it, chunks of grain indices are
// claimed dynamically, and the per-chunk buffers are concatenated in
// chunk order. The result is bit-identical to running emit sequentially
// for i = 0..n-1 with a single shared buffer, at every thread count. w is
// the worker running the call, dense in [0, max(threads, 1)), for callers
// that keep per-worker scratch.
func Collect[T any](n, grain, threads int, emit func(w, i int, out []T) []T) []T {
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	workers := workersFor(n, grain, threads)
	if workers == 1 {
		var out []T
		for i := 0; i < n; i++ {
			out = emit(0, i, out)
		}
		return out
	}
	chunks := (n + grain - 1) / grain
	bufs := make([][]T, chunks)
	ForEachWorker(chunks, 1, workers, func(w, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo, hi := c*grain, (c+1)*grain
			if hi > n {
				hi = n
			}
			var buf []T
			for i := lo; i < hi; i++ {
				buf = emit(w, i, buf)
			}
			bufs[c] = buf
		}
	})
	// Concatenate in chunk order: sizes → offsets → parallel copy.
	sizes := make([]int64, chunks)
	for c, b := range bufs {
		sizes[c] = int64(len(b))
	}
	total := PrefixSum(sizes)
	out := make([]T, total)
	ForEach(chunks, 1, workers, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			copy(out[sizes[c]:], bufs[c])
		}
	})
	return out
}
