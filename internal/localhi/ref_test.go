package localhi

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/nucleus"
)

// refNotify is the wake-up pass notify replaced, kept as its oracle,
// verbatim up to its name and the ρ record it ignores: after a fall, every
// co-member of every s-clique of the row is read, whatever ρ the kernel
// read for the s-clique.
func refNotify(row, _ []int32, _ int, tau, active []int32, h, old int32, par bool) {
	for _, d := range row {
		if t := load(par, tau, d); t > h {
			wake(tau, active, d, t, h, old, par)
		}
	}
}

// hashSweeps is an OnSweep that appends the hash of τ after every sweep
// to sums.
func hashSweeps(sums *[]uint64) func(int, []int32) {
	return func(_ int, tau []int32) {
		h := fnv.New64a()
		for _, v := range tau {
			h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		*sums = append(*sums, h.Sum64())
	}
}

// tauHashes runs AND with notification at one thread, with the given
// wake-up pass, and returns the run and the hash of τ after every sweep.
func tauHashes(inst nucleus.Instance, notify notifier) (*Result, []uint64) {
	var sums []uint64
	res := and(inst, Options{Notification: true, OnSweep: hashSweeps(&sums)}, notify)
	return res, sums
}

// TestNotifyMatchesFullRowReference holds AND's wake-ups through the
// s-cliques above the new index to refNotify at one thread, on planted
// communities, RMAT and power-law graphs over stored truss, (3,4) and
// (2,4) rows: every sweep leaves the same τ and makes the same updates —
// a co-member only the skipped s-cliques would have woken could not have
// fallen — while the run visits no more s-cliques and skips no fewer
// cells. Over all inputs it must visit strictly fewer.
func TestNotifyMatchesFullRowReference(t *testing.T) {
	var gs []*graph.Graph
	for seed := int64(1); seed <= 3; seed++ {
		gs = append(gs,
			graph.PlantedCommunities(5, 30, 0.4, 150, seed),
			graph.RMAT(9, 8, 0.57, 0.19, 0.19, seed),
			graph.PowerLawCluster(300, 6, 0.6, seed))
	}
	var visits, refVisits int64
	for gi, g := range gs {
		for fam, inst := range map[string]nucleus.Instance{
			"truss": nucleus.NewFlatTruss(g, 1), "n34": nucleus.NewFlatN34(g, 1), "(2,4)": nucleus.NewFlat(g, 2, 4, 1),
		} {
			name := fmt.Sprintf("%s/g%d", fam, gi)
			got, gotSums := tauHashes(inst, notify)
			want, wantSums := tauHashes(inst, refNotify)
			if !got.Converged || !slices.Equal(gotSums, wantSums) {
				t.Fatalf("%s: converged=%v, per-sweep τ %x, reference %x", name, got.Converged, gotSums, wantSums)
			}
			if !slices.Equal(got.SweepUpdates, want.SweepUpdates) || got.Updates != want.Updates {
				t.Fatalf("%s: sweep updates %v (%d), reference %v (%d)", name, got.SweepUpdates, got.Updates, want.SweepUpdates, want.Updates)
			}
			if got.WorkVisits > want.WorkVisits || got.SkippedCells < want.SkippedCells {
				t.Fatalf("%s: visits %d skipped %d, reference visits %d skipped %d",
					name, got.WorkVisits, got.SkippedCells, want.WorkVisits, want.SkippedCells)
			}
			visits += got.WorkVisits
			refVisits += want.WorkVisits
		}
	}
	t.Logf("s-clique visits %d, full-row reference %d", visits, refVisits)
	if visits >= refVisits {
		t.Fatalf("s-clique visits %d, full-row reference %d: no wake-up was saved", visits, refVisits)
	}
}
