package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nucleus/internal/graph"
)

// scriptBytes renders the seeded part of every workload's script — the
// library inputs, the serve_query requests, the fleet_mutate batches — as
// bytes, for a handful of rounds at toy size.
func scriptBytes(seed int64) []byte {
	var buf bytes.Buffer
	core := &libCore{cfg: config{seed: seed, size: toy}}
	nuc := &libNucleus{cfg: config{seed: seed, size: toy}}
	for r := 0; r < 3; r++ {
		_, edges := core.input(r)
		buf.Write(edgeListText(edges))
		buf.Write(edgeListText(nuc.input(r).Edges()))
		rng := rand.New(rand.NewSource(subSeed(seed, r)))
		for _, q := range append(computeScript(r), readScript(rng, 240)...) {
			fmt.Fprintf(&buf, "%d %s\n", q.slot, q.path)
		}
	}
	led := newLedger(edgeList(fleetGraph(toy, seed), seed))
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < 8; r++ {
		buf.Write(batchJSON(led.nextBatch(rng)))
	}
	return buf.Bytes()
}

func TestScriptsRepeatForASeedAndDifferAcrossSeeds(t *testing.T) {
	a, again, b := scriptBytes(1), scriptBytes(1), scriptBytes(2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed gave two different scripts")
	}
	if bytes.Equal(a, b) {
		t.Error("seeds 1 and 2 gave the same script")
	}
}

// The misses walk the copies of the graph in a cycle longer than the
// entries the LRU has free for them, so a key is evicted before it is
// asked for again.
func TestServeScriptMissesThrash(t *testing.T) {
	const free = serveCacheSize - 2 // exact truss and exact core stay hot
	var order []string
	for r := 0; r < 2*missGraphs; r++ {
		for _, q := range computeScript(r) {
			if q.slot == slotAlt {
				order = append(order, q.path)
			}
		}
	}
	for i, path := range order {
		others := map[string]bool{}
		for j := i - 1; j >= 0 && order[j] != path; j-- {
			others[order[j]] = true
		}
		if i >= missGraphs && len(others) < free {
			t.Fatalf("miss %d comes back after %d other keys, the LRU has %d entries free: %v", i, len(others), free, order)
		}
	}
}

// After the ramp-in every batch is 8 adds and 8 removes of earlier adds,
// and the ledger's size stands still.
func TestLedgerBatchesAreStationary(t *testing.T) {
	g := graph.RMAT(8, 8, 0.57, 0.19, 0.19, 3)
	led := newLedger(g.Edges())
	rng := rand.New(rand.NewSource(3))
	var size int
	for r := 0; r < 20; r++ {
		b := led.nextBatch(rng)
		if r <= removeLag {
			size = len(led.edges)
			continue
		}
		if len(b.Edits) != 2*batchAdds {
			t.Fatalf("batch %d has %d edits, want %d", r, len(b.Edits), 2*batchAdds)
		}
		if len(led.edges) != size || len(led.index) != size {
			t.Fatalf("batch %d: ledger holds %d edges (%d indexed), want %d", r, len(led.edges), len(led.index), size)
		}
	}
	for i, e := range led.edges {
		if led.index[e] != i || e[0] >= e[1] {
			t.Fatalf("ledger index broken at %d: %v", i, e)
		}
	}
}
