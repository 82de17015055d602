package sched

import (
	"fmt"
	"testing"
	"time"
)

// The dispatch hot path — Enqueue, TryNext, Done over warm tenant
// queues — must not allocate: scheduling replaced a bare channel in
// front of every job the server runs, and must not tax it. Each helper
// below returns one steady-state cycle, already run 1024 times so the
// tenant map, heap capacity, ring capacity and byID buckets are
// populated and what follows exercises only reuse. The Test* twins gate
// the cycle at exactly 0 allocations on every `go test`; the Benchmark*
// twins time it.

const dispatchTenants = 3

func dispatchItem(clock Clock, id string, tenant int, deadline time.Duration) *Item {
	return &Item{
		ID:          id,
		Tenant:      fmt.Sprintf("tenant-%d", tenant),
		PredictedMs: 10,
		Deadline:    clock.Now().Add(deadline),
	}
}

// warm runs cycle 1024 times and hands it back.
func warm(cycle func()) func() {
	for i := 0; i < 1024; i++ {
		cycle()
	}
	return cycle
}

// warmDispatch is the single-item cycle: one Enqueue → TryNext → Done
// over empty queues, rotating through the tenants.
func warmDispatch(tb testing.TB) func() {
	clock := NewFakeClock()
	s := New(Config{Workers: 4, MaxQueued: 1024, QuantumMs: 50}, clock, nil)
	items := make([]*Item, dispatchTenants)
	for i := range items {
		items[i] = dispatchItem(clock, fmt.Sprintf("bench-%d", i), i, time.Hour)
	}
	next := 0
	return warm(func() {
		it := items[next%dispatchTenants]
		next++
		if err := s.Enqueue(it); err != nil {
			tb.Fatal(err)
		}
		out, ok := s.TryNext()
		if !ok {
			tb.Fatal("nothing dispatchable")
		}
		s.Done(out)
	})
}

// warmBacklogDispatch is the same path with standing backlogs (32 items
// per tenant at distinct deadlines), so TryNext exercises the DRR
// rotation and EDF heap repair rather than a single-item queue: each
// cycle dispatches the head, finishes it and puts it back.
func warmBacklogDispatch(tb testing.TB) func() {
	clock := NewFakeClock()
	const depth = 32
	s := New(Config{Workers: 4, MaxQueued: dispatchTenants*depth + dispatchTenants, QuantumMs: 50}, clock, nil)
	for tn := 0; tn < dispatchTenants; tn++ {
		for d := 0; d < depth; d++ {
			it := dispatchItem(clock, fmt.Sprintf("bl-%d-%d", tn, d), tn, time.Duration(d+1)*time.Hour)
			if err := s.Enqueue(it); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return warm(func() {
		out, ok := s.TryNext()
		if !ok {
			tb.Fatal("nothing dispatchable")
		}
		s.Done(out)
		if err := s.Enqueue(out); err != nil {
			tb.Fatal(err)
		}
	})
}

func requireZeroAlloc(t *testing.T, cycle func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("dispatch cycle allocates: %v allocs/op, want 0", allocs)
	}
}

func TestSchedulerDispatchZeroAlloc(t *testing.T) { requireZeroAlloc(t, warmDispatch(t)) }

func TestSchedulerBacklogDispatchZeroAlloc(t *testing.T) {
	requireZeroAlloc(t, warmBacklogDispatch(t))
}

func benchCycle(b *testing.B, cycle func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func BenchmarkSchedulerDispatch(b *testing.B)        { benchCycle(b, warmDispatch(b)) }
func BenchmarkSchedulerBacklogDispatch(b *testing.B) { benchCycle(b, warmBacklogDispatch(b)) }
