// Package par provides the shard-parallel primitives shared by every
// parallel O(n+m) stage in the tree: grained parallel-for loops, the
// deterministic two-pass counting-sort scatter behind the CSR builders,
// prefix sums and order-preserving parallel gathers.
//
// Every primitive here is *deterministic by construction*: the output is
// bit-identical at every thread count (including 1), so callers can prove
// parallel == sequential with a differential test instead of reasoning
// about schedules. The two tricks that make that cheap:
//
//   - Two-pass counting-sort scatter (ScatterByKey, CountingCSR): a count
//     pass over contiguous per-worker source ranges, a prefix sum over
//     (key-major, worker-minor) counts, then a scatter pass in which every
//     entry's slot is a pure function of its source position — exactly the
//     slot a sequential stable counting sort would assign.
//   - Chunk-ordered gathers (Collect): dynamically scheduled chunks each
//     append to their own buffer, and buffers are concatenated in chunk
//     order, reproducing the sequential emission order regardless of which
//     worker ran which chunk when.
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
// deterministic order (the basis of the two-pass scatter). Returns the
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

// ScatterByKey is the deterministic two-pass counting-sort scatter: visit
// is called for every source index i in [0, n) and may emit any number of
// (key, value) entries with keys in [0, numKeys); the result groups values
// by key into a flat CSR — values of key k are items[offs[k]:offs[k+1]] —
// ordered within a group by (source index, emission order). That is
// exactly the order a sequential loop appending to per-key slices would
// produce, at every thread count.
//
// visit runs twice per source index (count pass, scatter pass) and must
// emit the identical sequence both times; it runs concurrently on
// disjoint contiguous source ranges.
func ScatterByKey[T any](n, numKeys, threads int, visit func(i int, emit func(key int, v T))) (offs []int64, items []T) {
	offs = make([]int64, numKeys+1)
	if n <= 0 || numKeys <= 0 {
		return offs, nil
	}
	if threads < 1 {
		threads = 1
	}
	if threads > n {
		threads = n
	}

	// Pass 1: per-worker counts over contiguous source ranges.
	counts := make([][]int64, threads)
	workers := Ranges(n, threads, func(w, lo, hi int) {
		c := make([]int64, numKeys)
		counts[w] = c
		for i := lo; i < hi; i++ {
			visit(i, func(key int, _ T) { c[key]++ })
		}
	})
	counts = counts[:workers]

	// Key-major, worker-minor prefix sum: counts[w][k] becomes the first
	// slot for worker w's entries of key k, and offs becomes the CSR
	// offsets. Worker-minor order is what pins every entry to the slot a
	// sequential scan would give it. The totals pass parallelizes over
	// keys; the running sum itself is one serial O(numKeys) walk.
	tot := offs[1:]
	ForEach(numKeys, 4096, threads, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			var t int64
			for _, c := range counts {
				t += c[k]
			}
			tot[k] = t
		}
	})
	// Inclusive scan over the counts sitting at offs[1:]: with offs[0] = 0
	// this turns offs into the standard CSR offset array (offs[k] = first
	// slot of key k). Then convert counts to cursors.
	for k := 1; k <= numKeys; k++ {
		offs[k] += offs[k-1]
	}
	total := offs[numKeys]
	ForEach(numKeys, 4096, threads, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			cur := offs[k]
			for _, c := range counts {
				n := c[k]
				c[k] = cur
				cur += n
			}
		}
	})

	// Pass 2: scatter. Each worker re-scans its exact pass-1 range, so its
	// cursors cover precisely its own entries; slots are disjoint across
	// workers by construction.
	items = make([]T, total)
	Ranges(n, threads, func(w, lo, hi int) {
		cur := counts[w]
		for i := lo; i < hi; i++ {
			visit(i, func(key int, v T) {
				items[cur[key]] = v
				cur[key]++
			})
		}
	})
	return offs, items
}

// CountingCSR buckets the indices [0, len(keys)) by their key: index i
// lands in group keys[i], and groups are returned as a flat CSR with
// indices ascending within each group — the stable counting sort every
// bucket structure in the tree starts from. Keys must lie in [0, numKeys).
func CountingCSR(keys []int32, numKeys, threads int) (offs []int64, items []int32) {
	return ScatterByKey(len(keys), numKeys, threads, func(i int, emit func(int, int32)) {
		emit(int(keys[i]), int32(i))
	})
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
