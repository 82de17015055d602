package server

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"nucleus/internal/hierarchy"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/store"
)

// cacheKey identifies one decomposition result. The graph version ties the
// entry to a specific registry entry, so re-uploading a graph under the
// same name invalidates prior results implicitly. MaxSweeps is part of the
// key because a bounded run returns an approximation (τ ≥ κ), not the same
// array a converged run would. Threads is set only for a bounded AND, the
// one run whose τ depends on the worker count (a concurrent sweep reads
// what other workers already wrote); it is 0 in every other key.
type cacheKey struct {
	graph     string
	version   uint64
	dec       nucleus.Family
	alg       localhi.Algorithm
	maxSweeps int
	threads   int
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
// array, made by the first read that asks (decompResult.encoded): spliced
// from base when the result was installed over a version whose memo was
// already made, encoded from the result's cells otherwise. Whoever installs
// a result over a predecessor checks made, not once, so the check does not
// race the predecessor's first read (tailOver).
type tailMemo struct {
	once      sync.Once
	made      atomic.Bool // set once the fields below are final
	histogram []byte
	cells     []byte
	// counts is the histogram before its encoding, and marks[j] the offset
	// of value 64·j in cells: what a successor's splice starts from.
	counts []int64
	marks  []int
	// base is the predecessor's memo, already made, and moved lists the
	// cells whose value differs from it, by strictly ascending index; the
	// splice drops both, so a chain of unread memos cannot form.
	base  *tailMemo
	moved []movedCell
}

// movedCell is one cell a batch moved: its index and its value before and
// after.
type movedCell struct {
	i        uint32
	old, new int32
}

// tailOver returns the tail memo of a core result installed over seed, the
// previous version's result, with cores the batch's changed core numbers:
// one that splices seed's memo on first read when that memo is made and
// has n cells, an empty one otherwise (no seed, a seed nobody read, a
// grown vertex count), which encodes in full.
func tailOver(seed *decompResult, cores []store.CoreChange, n int) *tailMemo {
	if seed == nil || len(seed.Kappa) != n || !seed.tail.made.Load() {
		return new(tailMemo)
	}
	moved := make([]movedCell, len(cores))
	for i, c := range cores {
		moved[i] = movedCell{c.V, seed.Kappa[c.V], c.Kappa}
	}
	return &tailMemo{base: seed.tail, moved: moved}
}

// stability is the ground-truth-free convergence signal of a finished run:
// the fraction of cells its last sweep still changed, and the complement.
func (res *decompResult) stability() (updateRate, fractionStable float64) {
	if n := len(res.Kappa); n > 0 {
		updateRate = float64(res.LastSweepUpdates) / float64(n)
	}
	return updateRate, 1 - updateRate
}

// encoded returns res's tail memo, made on first use.
func (res *decompResult) encoded() *tailMemo {
	m := res.tail
	m.once.Do(func() {
		if m.base != nil {
			m.splice(res.MaxKappa)
		} else {
			m.encode(res.Kappa, res.MaxKappa)
		}
		m.histogram = appendInts(m.counts, nil)
		m.made.Store(true)
	})
	return m
}

// encode counts the cells at each κ (or τ) value and encodes the cells,
// marking every 64th.
func (m *tailMemo) encode(kappa []int32, maxKappa int32) {
	m.counts = make([]int64, maxKappa+1)
	for _, k := range kappa {
		m.counts[k]++
	}
	m.marks = make([]int, (len(kappa)+63)/64)
	m.cells = appendInts(kappa, m.marks)
}

// splice makes m from base and moved, in time linear in the bytes copied
// and the cells moved: the stretches of base's cells between moved values
// are bulk-copied into one buffer, each moved value is written at its new
// width, the marks shift by the width changes before them and the counts
// move; then base is dropped.
func (m *tailMemo) splice(maxKappa int32) {
	base, moved := m.base, m.moved
	size := len(base.cells)
	for _, c := range moved {
		size += decimalWidth(int64(c.new)) - decimalWidth(int64(c.old))
	}
	cells := make([]byte, size)
	m.marks = make([]int, len(base.marks))
	counts := make([]int64, max(len(base.counts), int(maxKappa)+1))
	copy(counts, base.counts)
	from, to, shift, j := 0, 0, 0, 0
	for _, c := range moved {
		for ; j < len(m.marks) && j<<6 <= int(c.i); j++ {
			m.marks[j] = base.marks[j] + shift
		}
		at := base.marks[c.i>>6]
		for k := c.i & 63; k > 0; at++ {
			if base.cells[at] == ',' {
				k--
			}
		}
		to += copy(cells[to:], base.cells[from:at])
		to += len(strconv.AppendInt(cells[to:to], int64(c.new), 10))
		from = at + decimalWidth(int64(c.old))
		shift += decimalWidth(int64(c.new)) - decimalWidth(int64(c.old))
		counts[c.old]--
		counts[c.new]++
	}
	for ; j < len(m.marks); j++ {
		m.marks[j] = base.marks[j] + shift
	}
	copy(cells[to:], base.cells[from:])
	m.cells, m.counts = cells, counts[:maxKappa+1]
	m.base, m.moved = nil, nil
}

// twoDigits holds the two decimal digits of every value in [0, 100).
const twoDigits = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendInts returns xs as json.Marshal writes a non-nil slice of them, in
// a buffer allocated at the exact length, and records in marks, when it is
// not nil, the offset of every 64th value. Values in [0, 100), which every
// κ of the bench graphs is, come from twoDigits without a branch on their
// width: the tens digit is written first and, for a value below 10,
// overwritten by the units digit. The rest go through strconv.AppendInt.
func appendInts[T int32 | int64](xs []T, marks []int) []byte {
	size := max(len(xs), 1) + 1 // brackets and commas
	for _, x := range xs {
		if u := uint64(int64(x)); u < 100 {
			size++
			if u >= 10 {
				size++
			}
		} else {
			size += decimalWidth(int64(x))
		}
	}
	buf := make([]byte, size)
	buf[0] = '['
	p := 1
	for i, x := range xs {
		if i&63 == 0 && marks != nil {
			marks[i>>6] = p
		}
		if u := uint64(int64(x)); u < 100 {
			units := p
			if u >= 10 {
				units++
			}
			buf[p] = twoDigits[2*u]
			buf[units] = twoDigits[2*u+1]
			p = units + 1
		} else {
			p += len(strconv.AppendInt(buf[p:p], int64(x), 10))
		}
		buf[p] = ','
		p++
	}
	buf[size-1] = ']'
	return buf
}

// decimalWidth is the length of x in decimal.
func decimalWidth(x int64) int {
	var digits [20]byte
	return len(strconv.AppendInt(digits[:0], x, 10))
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
