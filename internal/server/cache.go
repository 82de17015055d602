package server

import (
	"container/list"
	"strconv"
	"sync"

	"nucleus/internal/hierarchy"
	"nucleus/internal/nucleus"
)

// cacheKey identifies one decomposition result. The graph version ties the
// entry to a specific registry entry, so re-uploading a graph under the
// same name invalidates prior results implicitly. MaxSweeps is part of the
// key because a bounded run returns an approximation (τ ≥ κ), not the same
// array a converged run would.
type cacheKey struct {
	graph     string
	version   uint64
	dec       string
	alg       string
	maxSweeps int
}

// decompResult is a completed decomposition, shared between the job store
// and the cache. Immutable after creation, but for the memo behind hier.
type decompResult struct {
	Kappa      []int32
	MaxKappa   int32
	Converged  bool
	Iterations int
	Sweeps     int
	// Stopped is true when the run was ended by cooperative cancellation
	// or a wall-clock deadline rather than convergence or a sweep budget.
	// Stopped results are never cached: they depend on timing, not on the
	// request parameters.
	Stopped bool
	// Updates is the total number of τ decrements the run applied;
	// LastSweepUpdates is the count from the final sweep alone (the
	// ground-truth-free convergence signal surfaced to clients: its decay
	// toward zero tracks τ approaching κ). Both are 0 for peeling.
	Updates          int64
	LastSweepUpdates int64
	// Inst is the instance κ was computed on. Kept with the result so the
	// hierarchy/nuclei endpoints reuse the (often expensive) s-clique
	// enumeration instead of rebuilding it per request.
	Inst nucleus.Instance
	// hier is what /hierarchy and /nuclei read: a function of (Inst, Kappa),
	// it lives and dies with this result, under no key of its own.
	hier *forestMemo
	// tail is what /decompose and /jobs/{id}/result splice after their
	// per-request head: a function of Kappa, so a job's slim copy shares it.
	tail *tailMemo
}

// forestMemo is the nucleus forest of one decompResult and its encoded
// /hierarchy body, derived by the first read that asks (Server.forestOf).
type forestMemo struct {
	once   sync.Once
	forest *hierarchy.Forest
	body   []byte
	err    error
}

// tailMemo is the JSON of one decompResult's histogram and of its cell
// array, encoded by the first read that asks (decompResult.encoded).
type tailMemo struct {
	once      sync.Once
	histogram []byte
	cells     []byte
}

// stability is the ground-truth-free convergence signal of a finished run:
// the fraction of cells its last sweep still changed, and the complement.
func (res *decompResult) stability() (updateRate, fractionStable float64) {
	if n := len(res.Kappa); n > 0 {
		updateRate = float64(res.LastSweepUpdates) / float64(n)
	}
	return updateRate, 1 - updateRate
}

// encoded returns res's tail memo, counting the cells at each κ (or τ)
// value and encoding both arrays on first use.
func (res *decompResult) encoded() *tailMemo {
	m := res.tail
	m.once.Do(func() {
		hist := make([]int64, res.MaxKappa+1)
		for _, k := range res.Kappa {
			hist[k]++
		}
		m.histogram = appendInts(hist)
		m.cells = appendInts(res.Kappa)
	})
	return m
}

// appendInts returns xs as json.Marshal writes a non-nil slice of them:
// strconv.AppendInt into a buffer allocated at the exact length.
func appendInts[T int32 | int64](xs []T) []byte {
	var digits [20]byte
	size := max(len(xs), 1) + 1 // brackets and commas
	for _, x := range xs {
		size += len(strconv.AppendInt(digits[:0], int64(x), 10))
	}
	buf := append(make([]byte, 0, size), '[')
	for i, x := range xs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return append(buf, ']')
}

// lruCache is a fixed-capacity LRU map from cacheKey to *decompResult.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

type lruEntry struct {
	key cacheKey
	val *decompResult
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		// A non-positive capacity would make put evict its own insertion
		// (the len > cap loop below), silently disabling the cache; clamp
		// to the smallest real cache instead.
		capacity = 1
	}
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[cacheKey]*list.Element, capacity),
	}
}

func (c *lruCache) get(k cacheKey) (*decompResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) put(k cacheKey, v *decompResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// peek returns the entry for k without promoting it in the LRU order.
// Used by internal scans (e.g. warm-start seeding) that should not
// distort the eviction order the way client traffic does.
func (c *lruCache) peek(k cacheKey) (*decompResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).val, true
}

// purgeGraph removes every entry for the named graph with version below
// minVer. Deleting or replacing a graph makes those entries unreachable
// (the live version changed), so without this they pin κ arrays and
// s-clique indices until LRU pressure happens to evict them. An in-flight
// decomposition that finishes after the purge is handled by fill's
// liveness recheck, which removes its own stale insert.
func (c *lruCache) purgeGraph(name string, minVer uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*lruEntry)
		if e.key.graph == name && e.key.version < minVer {
			c.ll.Remove(el)
			delete(c.items, e.key)
		}
		el = next
	}
}

// remove drops one entry if present.
func (c *lruCache) remove(k cacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.Remove(el)
		delete(c.items, k)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
