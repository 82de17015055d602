package main

import "time"

// Host-speed calibration.
//
// The sandbox this benchmark runs on shares its cores, caches and memory
// with other tenants: its speed drifts by ±10 % over minutes, with bursts
// of seconds to 1.5× and more, and every op slows down or speeds up with
// it (README.md, "Noise"). Ten raw runs of an unchanged program spread by
// 5–17 % on a good half hour and 15–35 % on a bad one, which would bury
// any change this benchmark is meant to show.
//
// So between rounds, while every client waits at a barrier and nothing of
// the program under test has work to do, one goroutine times a fixed
// kernel, and every timing of a round is reported at a reference host
// speed: multiplied by the kernel's nominal time over the mean of its
// times just before and just after the round. The kernel is the
// benchmark's own code and calls nothing of the repository: dependent
// integer arithmetic and random gathers over 2 MiB, the instruction mix of
// a graph sweep. Its first quarter refills the cache the round left cold,
// the rest runs from L2, so the whole feels both memory and core
// contention and the warm part core contention alone. It runs for about
// 5 ms, fifty times an op's timer resolution, and only at barriers: a
// pause inside an op (GC, a lock, an fsync) and the clients' contention
// with each other are not corrected away. What it cannot see is work the
// program leaves running after its last answer (a background GC cycle
// still marking): that shares the second core with the kernel, not the
// first.

// The kernel's times on the reference host: the 2-core sandbox this
// benchmark was written on, in a quiet minute. Reported timings are what
// that host would read; the traced pass reports raw times and the kernel's
// median beside them (host.calib_ms).
const (
	calibNominalMs     = 5.0 // the whole kernel
	calibNominalWarmMs = 3.2 // its last three quarters
)

const calibSteps = 1_200_000

var calibData = func() []uint32 {
	a := make([]uint32, 1<<19) // 2 MiB
	x := uint32(12345)
	for i := range a {
		x = x*1664525 + 1013904223
		a[i] = x
	}
	return a
}()

// calibSink keeps the kernel's result alive, so the loop cannot be
// optimised away. Only the goroutine at the barrier touches it.
var calibSink uint32

// hostSpeed runs the kernel once on the calling goroutine and returns the
// time of the whole run and of the part after its first quarter, in ms.
func hostSpeed() (whole, warm float64) {
	mask := uint32(len(calibData) - 1)
	idx, acc := uint32(1), uint32(0)
	steps := func(n int) {
		for i := 0; i < n; i++ {
			idx = idx*1664525 + 1013904223
			acc = (acc ^ calibData[(idx>>8)&mask]) * 2654435761
			acc ^= acc >> 15
		}
	}
	start := time.Now()
	steps(calibSteps / 4)
	mid := time.Now()
	steps(calibSteps - calibSteps/4)
	end := time.Now()
	calibSink ^= acc
	return float64(end.Sub(start).Nanoseconds()) / 1e6, float64(end.Sub(mid).Nanoseconds()) / 1e6
}

// coreBound lists the slotted ops that are scaled by the warm part of the
// kernel alone: the two cache hits, which walk no graph. What slows the
// whole kernel on this host is mostly a neighbour's memory traffic, and it
// slows every op that works through a graph with it; a request path with a
// prepared answer it leaves alone. In the runs where the whole kernel and
// the fleet's batch ops read 20 % slow its routed read took 1.42 against
// 1.37 ms, and scaled by the whole kernel it spread by 10.5 % over ten
// seeds; in the runs where the cores themselves ran 10 % fast it took 1.07
// to 1.24 ms, and as measured it spread by 17 %. By the warm part: 2–3 %.
var coreBound = map[string]bool{"serve_query/main": true, "fleet_mutate/alt": true}

// atReference brings the recorder's samples and op time to the reference
// host speed, round by round; calib and calibWarm hold one kernel time per
// barrier.
func (r *recorder) atReference() {
	whole := func(round int) float64 {
		return calibNominalMs / ((r.calib[round] + r.calib[round+1]) / 2)
	}
	warm := func(round int) float64 {
		return calibNominalWarmMs / ((r.calibWarm[round] + r.calibWarm[round+1]) / 2)
	}
	for s := range r.slot {
		factor := whole
		if coreBound[r.opName[s]] {
			factor = warm
		}
		r.atRef[s] = make([]float64, len(r.slot[s]))
		for i, ms := range r.slot[s] {
			r.atRef[s][i] = ms * factor(r.slotRound[s][i])
		}
	}
	r.atRefBusy = 0
	for round, ms := range r.busy {
		r.atRefBusy += ms * whole(round)
	}
}
