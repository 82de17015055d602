package localhi

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/hindex"
	"nucleus/internal/nucleus"
	"nucleus/internal/nucleustest"
	"nucleus/internal/peel"
)

// The §4.4 early exit — stop reading a cell's s-cliques once cur of them
// have ρ ≥ cur, which preserves the current index — is part of the kernel
// contract (kernel.go), not an option. These tests pin the contract on the
// kernel itself.

// TestPreserveExactness: for any τ array and any cur, the kernel returns
// exactly min(cur, H(ρ list)) — H computed by hindex.Linear over the ρ list
// gathered from the cell's row (nucleustest.Groups) — over stored rows and
// over the same rows discovered, and pays the same visits on both, never
// more than the row holds. The instances run every row loop of the kernel:
// co-arity 1 (core), 2 (truss, and (1,3) from the generic builder), 3
// ((3,4) and (1,4)) and 5 ((2,4), the generic loop). Some τ are
// math.MaxInt32, the overflow edge of the kernel's arithmetic min. One
// scratch per side serves every call, so the counting array is as dirty as
// a sweep leaves it.
func TestPreserveExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for round := 0; round < 12; round++ {
		n := 12 + rng.Intn(20)
		g := graph.GnM(n, 3*n+rng.Intn(3*n), rng.Int63())
		for _, inst := range []nucleus.Instance{
			nucleus.NewCore(g), nucleus.NewFlatTruss(g, 1), nucleus.NewFlatN34(g, 1),
			nucleus.NewFlat(g, 1, 3, 1), nucleus.NewFlat(g, 1, 4, 1), nucleus.NewFlat(g, 2, 4, 1),
		} {
			deg := inst.Degrees()
			tau := make([]int32, len(deg))
			var maxDeg int32
			for c, d := range deg {
				tau[c] = int32(rng.Intn(int(d) + 2)) // any value, not only a valid τ
				if rng.Intn(8) == 0 {
					tau[c] = math.MaxInt32
				}
				maxDeg = max(maxDeg, d)
			}
			stored, discovered := inst.Rows(), nucleustest.Discovered(inst).Rows()
			top := []int32{maxDeg + 2} // the largest cur asked below sizes the scratch
			scS, scD := &newScratches(1, top, 0)[0], &newScratches(1, top, 0)[0]
			for c := int32(0); c < int32(len(deg)); c++ {
				var rhos []int32
				for _, others := range nucleustest.Groups(inst, c) {
					rho := tau[others[0]]
					for _, d := range others[1:] {
						rho = min(rho, tau[d])
					}
					rhos = append(rhos, rho)
				}
				h := hindex.Linear(rhos)
				for cur := int32(0); cur <= maxDeg+2; cur++ {
					gotS, visS, _ := update(&stored, c, tau, scS, cur, false)
					gotD, visD, _ := update(&discovered, c, tau, scD, cur, true)
					if want := min(cur, h); gotS != want || gotD != want {
						t.Fatalf("(%d,%d) cell %d cur %d: stored %d, discovered %d, want min(cur, H=%d)",
							inst.R(), inst.S(), c, cur, gotS, gotD, h)
					}
					if visS != visD || visS > int64(len(rhos)) || (visS < int64(len(rhos)) && gotS != cur) {
						t.Fatalf("(%d,%d) cell %d cur %d: visits stored %d, discovered %d, row %d, result %d",
							inst.R(), inst.S(), c, cur, visS, visD, len(rhos), gotS)
					}
				}
			}
		}
	}
}

// TestPreserveSavesVisits: on a plateau-heavy graph the early exit pays for
// fewer s-clique visits than reading every row in every sweep would.
func TestPreserveSavesVisits(t *testing.T) {
	g := graph.PowerLawCluster(800, 6, 0.5, 61)
	for _, inst := range []nucleus.Instance{nucleus.NewCore(g), nucleus.NewTruss(g), nucleus.NewFlatTruss(g, 1)} {
		var rows int64
		for _, d := range inst.Degrees() {
			rows += int64(d)
		}
		for name, res := range map[string]*Result{"snd": Snd(inst, Options{}), "and": And(inst, Options{})} {
			if !res.Converged {
				t.Fatalf("(%d,%d) %s did not converge", inst.R(), inst.S(), name)
			}
			if full := rows * int64(res.Sweeps); res.WorkVisits >= full {
				t.Errorf("(%d,%d) %s: %d visits in %d sweeps, full rows would be %d — the early exit saved nothing",
					inst.R(), inst.S(), name, res.WorkVisits, res.Sweeps, full)
			}
		}
	}
}

// TestPreserveParallel: exactness holds under concurrent sweeps.
func TestPreserveParallel(t *testing.T) {
	g := graph.PowerLawCluster(400, 5, 0.4, 63)
	inst := nucleus.NewTruss(g)
	want := peel.Run(inst).Kappa
	res := And(inst, Options{Threads: 4, Notification: true})
	if !equalInt32(res.Tau, want) {
		t.Fatal("parallel run with early exits is wrong")
	}
}

// TestPreserveZeroCells: cells at τ=0 skip enumeration entirely.
func TestPreserveZeroCells(t *testing.T) {
	g := graph.Star(6) // no triangles: all truss τ0 = 0
	for _, inst := range []nucleus.Instance{nucleus.NewTruss(g), nucleus.NewFlatTruss(g, 1)} {
		for name, res := range map[string]*Result{"snd": Snd(inst, Options{}), "and": And(inst, Options{Notification: true})} {
			if res.WorkVisits != 0 {
				t.Fatalf("%s: zero cells still visited %d s-cliques", name, res.WorkVisits)
			}
			for _, v := range res.Tau {
				if v != 0 {
					t.Fatalf("%s: wrong fixpoint", name)
				}
			}
		}
	}
}

// FuzzRowTau holds the kernel to its contract over arbitrary rows, apart
// from any instance: τ values are the 31-bit words of tauBytes (any
// non-negative int32, math.MaxInt32 included), the row's entries index
// them, co is 1..5 (every row loop, the generic one included) and cur is
// anything a uint16 holds. The result is min(cur, hindex.Linear(ρ list)),
// the visits never exceed the row's s-cliques and a short read returns
// cur, the ρ recorded at co ≥ 2 are the visited prefix of the ρ list, and
// the counting array is left dirty in between, as a sweep leaves it.
func FuzzRowTau(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0}, []byte{0, 1, 2, 1, 0, 2, 2, 2}, uint8(1), uint16(3), false)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 1, 0, 2, 0, 1, 1, 0}, uint8(2), uint16(2), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0}, []byte{0, 1, 0, 0, 1, 1, 0, 1, 0, 0}, uint8(4), uint16(0xffff), false)
	f.Add([]byte{}, []byte{}, uint8(0), uint16(0), false)
	f.Fuzz(func(t *testing.T, tauBytes, rowBytes []byte, coRaw uint8, curRaw uint16, par bool) {
		co := int(coRaw%5) + 1
		cur := int32(curRaw)
		tau := []int32{0}
		if len(tauBytes) >= 4 {
			tau = tau[:0]
			for i := 0; i+4 <= len(tauBytes) && len(tau) < 64; i += 4 {
				tau = append(tau, int32(binary.LittleEndian.Uint32(tauBytes[i:])&math.MaxInt32))
			}
		}
		row := make([]int32, 0, len(rowBytes))
		for _, b := range rowBytes[:len(rowBytes)/co*co] {
			row = append(row, int32(int(b)%len(tau)))
		}
		var rhos []int32
		for g := row; len(g) >= co; g = g[co:] {
			rho := int32(math.MaxInt32)
			for _, d := range g[:co] {
				rho = min(rho, tau[d])
			}
			rhos = append(rhos, rho)
		}

		cnt := make([]int32, cur+1)
		for i := range cnt {
			cnt[i] = int32(i*7 + 3) // dirty, as the last cell left it
		}
		got := make([]int32, len(rhos))
		rec := got
		if co == 1 {
			rec = nil
		}
		h, visits := rowTau(row, co, tau, cnt, rec, par)
		if want := min(cur, hindex.Linear(rhos)); h != want {
			t.Fatalf("co %d cur %d ρ %v: got %d, want min(cur, H) = %d", co, cur, rhos, h, want)
		}
		if visits > int64(len(rhos)) || (visits < int64(len(rhos)) && h != cur) {
			t.Fatalf("co %d cur %d ρ %v: %d visits of %d, result %d", co, cur, rhos, visits, len(rhos), h)
		}
		if rec != nil && !equalInt32(got[:visits], rhos[:visits]) {
			t.Fatalf("co %d cur %d: recorded ρ %v, want %v", co, cur, got[:visits], rhos[:visits])
		}
	})
}

// FuzzSndSweep holds SND's loop to the same contract over arbitrary rows:
// one sweep over k ≤ 8 cells whose indices are anything a uint16 holds
// (curBytes), reading them and up to 64 more cells at any non-negative
// int32, math.MaxInt32 included (tauBytes), at co-arity 1..5, with the
// counting array left dirty. Each row takes a count byte (up to 7
// s-cliques) and then co cell bytes per s-clique, while rowBytes last.
// Every cell lands on min(prev, hindex.Linear(ρ list)) and counts as an
// update iff it fell; a short read returns cur. The sweep over all k cells
// in reverse order through a cells list writes the same τ with the same
// totals.
func FuzzSndSweep(f *testing.F) {
	f.Add([]byte{3, 0, 2, 0}, []byte{5, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, []byte{3, 1, 2, 3, 1, 2, 3, 2, 0, 2}, uint8(0))
	f.Add([]byte{2, 0, 2, 0, 1, 0}, []byte{1, 0, 0, 0}, []byte{2, 1, 2, 3, 0, 2, 0, 3, 2, 0, 1}, uint8(1))
	f.Add([]byte{0xff, 0xff}, []byte{0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0}, []byte{7, 0, 1, 2, 1, 2, 1, 2, 2, 1, 1, 1, 0, 0, 2}, uint8(2))
	f.Add([]byte{4, 0, 0, 0}, []byte{}, []byte{6, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, curBytes, tauBytes, rowBytes []byte, coRaw uint8) {
		co := int(coRaw%5) + 1
		var prev []int32
		for i := 0; i+2 <= len(curBytes) && len(prev) < 8; i += 2 {
			prev = append(prev, int32(binary.LittleEndian.Uint16(curBytes[i:])))
		}
		k := len(prev)
		if k == 0 {
			return
		}
		curs := append([]int32(nil), prev...)
		for i := 0; i+4 <= len(tauBytes) && len(prev) < k+64; i += 4 {
			prev = append(prev, int32(binary.LittleEndian.Uint32(tauBytes[i:])&math.MaxInt32))
		}
		offs := make([]int64, len(prev)+1)
		var mem []int32
		var longest int32
		for c := 0; c < k; c++ {
			if len(rowBytes) > 0 {
				m := int(rowBytes[0] % 8)
				rowBytes = rowBytes[1:]
				m = min(m, len(rowBytes)/co)
				for _, b := range rowBytes[:m*co] {
					mem = append(mem, int32(int(b)%len(prev)))
				}
				rowBytes = rowBytes[m*co:]
				longest = max(longest, int32(m))
			}
			offs[c+1] = int64(len(mem))
		}
		for c := k + 1; c < len(offs); c++ {
			offs[c] = int64(len(mem))
		}
		rows := nucleus.Rows{Offs: offs, Mem: mem, Co: co}
		sc := &newScratches(1, curs, longest)[0]
		for i := range sc.cnt {
			sc.cnt[i] = int32(i*7 + 3) // dirty, as the last cell left it
		}

		tau := make([]int32, len(prev))
		var updates, visits int64
		for c := 0; c < k; c++ {
			var rhos []int32
			for g := mem[offs[c]:offs[c+1]]; len(g) >= co; g = g[co:] {
				rho := int32(math.MaxInt32)
				for _, d := range g[:co] {
					rho = min(rho, prev[d])
				}
				rhos = append(rhos, rho)
			}
			cur := prev[c]
			upd, vis := sndSweep(&rows, nil, c, c+1, prev, tau, sc)
			updates, visits = updates+upd, visits+vis
			want, fell := min(cur, hindex.Linear(rhos)), int64(0)
			if want < cur {
				fell = 1
			}
			if tau[c] != want || upd != fell {
				t.Fatalf("co %d cur %d ρ %v: got %d (%d updates), want min(cur, H) = %d", co, cur, rhos, tau[c], upd, want)
			}
			if vis > int64(len(rhos)) || (vis < int64(len(rhos)) && tau[c] != cur) {
				t.Fatalf("co %d cur %d ρ %v: %d visits of %d, result %d", co, cur, rhos, vis, len(rhos), tau[c])
			}
		}

		order := make([]int32, k)
		for i := range order {
			order[i] = int32(k - 1 - i)
		}
		again := make([]int32, len(prev))
		upd, vis := sndSweep(&rows, order, 0, k, prev, again, sc)
		if upd != updates || vis != visits || !equalInt32(again[:k], tau[:k]) {
			t.Fatalf("over a cells list: τ %v, %d updates, %d visits; one cell at a time: τ %v, %d, %d",
				again[:k], upd, vis, tau[:k], updates, visits)
		}
	})
}
