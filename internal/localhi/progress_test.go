package localhi

import (
	"sync/atomic"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// collectSnapshots runs alg with a Progress attached and returns every
// published snapshot in order. The subscriber buffer is sized far beyond
// any test run's sweep count, so the drop-oldest policy never fires and
// the stream is complete.
func collectSnapshots(t *testing.T, alg func(nucleus.Instance, Options) *Result,
	inst nucleus.Instance, opts Options) ([]*Snapshot, *Result) {
	t.Helper()
	p := NewProgress(1)
	opts.Progress = p
	ch, cancel := p.Subscribe(4096)
	defer cancel()
	res := alg(inst, opts)
	var snaps []*Snapshot
	for s := range ch {
		snaps = append(snaps, s)
	}
	return snaps, res
}

// TestProgressSnapshotsMonotone is the anytime property test: across
// Snd and And, over both stored and discovered rows,
// the streamed τ snapshots are pointwise monotonically non-increasing,
// max τ never rises, and the Final snapshot of a converged run equals the
// exact κ from peeling.
func TestProgressSnapshotsMonotone(t *testing.T) {
	for _, tc := range discoveredCases(t) {
		exact := peel.Run(tc.discovered)
		for pathName, inst := range map[string]nucleus.Instance{
			"discovered": tc.discovered, "stored": tc.stored,
		} {
			for algName, run := range map[string]func(nucleus.Instance, Options) *Result{
				"snd": Snd, "and": And,
			} {
				snaps, res := collectSnapshots(t, run, inst, Options{})
				if len(snaps) == 0 {
					t.Fatalf("%s %s %s: no snapshots published", tc.name, pathName, algName)
				}
				for i, s := range snaps {
					if len(s.Tau) != inst.NumCells() {
						t.Fatalf("%s %s %s snap %d: %d cells, want %d",
							tc.name, pathName, algName, i, len(s.Tau), inst.NumCells())
					}
					if s.UpdateRate < 0 || s.UpdateRate > 1 || s.FractionStable < 0 || s.FractionStable > 1 {
						t.Fatalf("%s %s %s snap %d: rates out of range: %+v",
							tc.name, pathName, algName, i, s)
					}
					if i == 0 {
						continue
					}
					prev := snaps[i-1]
					if s.Sweep < prev.Sweep {
						t.Fatalf("%s %s %s: sweep went backwards: %d after %d",
							tc.name, pathName, algName, s.Sweep, prev.Sweep)
					}
					if s.MaxTau > prev.MaxTau {
						t.Fatalf("%s %s %s snap %d: max τ rose %d → %d",
							tc.name, pathName, algName, i, prev.MaxTau, s.MaxTau)
					}
					if s.TauSum > prev.TauSum {
						t.Fatalf("%s %s %s snap %d: τ sum rose %d → %d",
							tc.name, pathName, algName, i, prev.TauSum, s.TauSum)
					}
					for c := range s.Tau {
						if s.Tau[c] > prev.Tau[c] {
							t.Fatalf("%s %s %s snap %d cell %d: τ rose %d → %d",
								tc.name, pathName, algName, i, c, prev.Tau[c], s.Tau[c])
						}
					}
				}
				final := snaps[len(snaps)-1]
				if !final.Final {
					t.Fatalf("%s %s %s: last snapshot not marked Final", tc.name, pathName, algName)
				}
				if !final.Converged || !res.Converged {
					t.Fatalf("%s %s %s: unbudgeted run did not converge", tc.name, pathName, algName)
				}
				for c := range final.Tau {
					if final.Tau[c] != exact.Kappa[c] {
						t.Fatalf("%s %s %s cell %d: final τ %d != κ %d",
							tc.name, pathName, algName, c, final.Tau[c], exact.Kappa[c])
					}
				}
				// Every snapshot upper-bounds κ pointwise (Theorem 1) — the
				// guarantee that makes partial results servable at all.
				for i, s := range snaps {
					for c := range s.Tau {
						if s.Tau[c] < exact.Kappa[c] {
							t.Fatalf("%s %s %s snap %d cell %d: τ %d < κ %d",
								tc.name, pathName, algName, i, c, s.Tau[c], exact.Kappa[c])
						}
					}
				}
			}
		}
	}
}

// TestProgressSnapshotsAreCopies pins the copy-on-write contract: a
// snapshot's τ array is private, so mutating one (as a buggy consumer
// might) cannot corrupt the run or other snapshots.
func TestProgressSnapshotsAreCopies(t *testing.T) {
	inst := nucleus.NewTruss(graph.PlantedCommunities(3, 10, 0.6, 20, 7))
	p := NewProgress(1)
	ch, cancel := p.Subscribe(4096)
	defer cancel()
	exact := peel.Run(inst)
	Snd(inst, Options{Progress: p, OnSweep: func(sweep int, tau []int32) {
		// Vandalize the freshest snapshot mid-run; the live τ must not see it.
		if s := p.Latest(); s != nil {
			for i := range s.Tau {
				s.Tau[i] = -999
			}
		}
	}})
	var final *Snapshot
	for s := range ch {
		final = s
	}
	for c, k := range exact.Kappa {
		if final.Tau[c] != k {
			t.Fatalf("cell %d: final τ %d != κ %d after snapshot vandalism", c, final.Tau[c], k)
		}
	}
}

// TestProgressEveryK checks the sweep-sampling filter: only every k-th
// sweep publishes, but the Final snapshot always does.
func TestProgressEveryK(t *testing.T) {
	inst := nucleus.NewCore(pathGraph(41))
	p := NewProgress(5)
	ch, cancel := p.Subscribe(4096)
	defer cancel()
	res := Snd(inst, Options{Progress: p})
	if res.Sweeps < 10 {
		t.Fatalf("path graph converged in %d sweeps; too fast to exercise sampling", res.Sweeps)
	}
	var snaps []*Snapshot
	for s := range ch {
		snaps = append(snaps, s)
	}
	for _, s := range snaps[:len(snaps)-1] {
		if s.Sweep%5 != 0 {
			t.Fatalf("intermediate snapshot at sweep %d violates every=5", s.Sweep)
		}
	}
	final := snaps[len(snaps)-1]
	if !final.Final || final.Sweep != res.Sweeps {
		t.Fatalf("final snapshot = sweep %d final=%v, want sweep %d", final.Sweep, final.Final, res.Sweeps)
	}
}

// TestStopEndsRunEarly exercises cooperative cancellation on both
// algorithms: the run halts at the next sweep boundary, reports Stopped
// without claiming convergence, and the partial τ still upper-bounds κ.
func TestStopEndsRunEarly(t *testing.T) {
	g := pathGraph(201) // Snd needs ~100 sweeps; And (sequential, in order) is fast but still multi-sweep
	inst := nucleus.NewCore(g)
	exact := peel.Run(inst)
	for algName, run := range map[string]func(nucleus.Instance, Options) *Result{
		"snd": Snd, "and": And,
	} {
		// Stop on the very first poll. Both engines consult Stop only once
		// an intermediate τ exists, so the run still performs >= 1 sweep.
		var polls atomic.Int64
		res := run(inst, Options{Stop: func() bool {
			polls.Add(1)
			return true
		}})
		if !res.Stopped {
			t.Fatalf("%s: Stopped not set", algName)
		}
		if res.Converged {
			t.Fatalf("%s: stopped run claims convergence", algName)
		}
		if res.Sweeps < 1 || res.Sweeps > 2 {
			t.Fatalf("%s: ran %d sweeps under an immediate stop", algName, res.Sweeps)
		}
		if polls.Load() == 0 {
			t.Fatalf("%s: Stop never polled", algName)
		}
		for c := range res.Tau {
			if res.Tau[c] < exact.Kappa[c] {
				t.Fatalf("%s cell %d: stopped τ %d < κ %d", algName, c, res.Tau[c], exact.Kappa[c])
			}
		}
	}
}

// TestLateSubscribeSeesFinal pins the subscribe-after-finish path: a
// reader attaching to a completed run still receives the Final snapshot
// and a closed channel.
func TestLateSubscribeSeesFinal(t *testing.T) {
	inst := nucleus.NewCore(pathGraph(21))
	p := NewProgress(1)
	res := Snd(inst, Options{Progress: p})
	<-p.Done()
	ch, cancel := p.Subscribe(1)
	defer cancel()
	s, ok := <-ch
	if !ok || !s.Final || s.Sweep != res.Sweeps {
		t.Fatalf("late subscriber got %+v ok=%v, want final sweep %d", s, ok, res.Sweeps)
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscriber channel not closed after final snapshot")
	}
}

// pathGraph builds the n-vertex path 0–1–…–(n−1): the slowest-converging
// core instance per cell count for Snd, since the degree-1 endpoints'
// influence travels one hop per synchronous sweep.
func pathGraph(n int) *graph.Graph {
	edges := make([][2]uint32, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]uint32{uint32(i), uint32(i + 1)})
	}
	return graph.Build(n, edges)
}
