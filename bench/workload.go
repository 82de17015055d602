package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The three op slots every workload fills (see README.md): main is the
// request the workload's user waits on, alt the same modules used the other
// way, aux the graph-sized step paid once per version or session.
const (
	slotMain = iota
	slotAlt
	slotAux
	numSlots
	// unslotted ops count toward mix_per_s and the failure count only.
	unslotted = -1
)

var slotNames = [numSlots]string{"main", "alt", "aux"}

// minSlotSamples is the least number of samples a slotted op needs before
// its percentiles are printed; below it the run fails instead.
const minSlotSamples = 30

// quietRounds is the round count below which a run warns: the committed
// sizes are chosen for well over 100 rounds in a measured phase.
const quietRounds = 100

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	threads  int   // P: GOMAXPROCS, library Threads, server Workers
	size     sizes // input sizes and round counts
	setups   int   // set-up is run this many times; setup_s is the median
	dataDir  string
	trace    bool // the traced pass: set-up also builds the shadow state
	// minSamples overrides minSlotSamples; the toy-sized tests lower it.
	minSamples int
	// sabotage corrupts one answer per round before the oracle sees it.
	// Test-only: it proves a wrong answer raises the failure count.
	sabotage bool
}

// workload is one of the four scripts. A value is used for one set-up.
type workload interface {
	clients() int
	// setUp generates the inputs from the seed, starts the system under
	// test, loads it and runs the warm-up rounds, recording their (untraced)
	// op times in warm.
	setUp(warm *recorder) error
	// round runs round r of client c's script. When rec traces, it also
	// wraps the calls into each layer in spans and replays server-side work
	// on shadow state.
	round(c, r int, rec *recorder)
	// check runs the post-phase oracles, reporting wrong answers through
	// rec.verify. An error means a check could not run at all.
	check(rec *recorder) error
	// finishTrace runs the once-per-pass layer measurements of a traced
	// pass and derives the layer metrics that are not plain span medians.
	finishTrace(rec *recorder, layers map[string]float64) error
	tearDown()
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "lib_core":
		return &libCore{cfg: cfg}, nil
	case "lib_nucleus":
		return &libNucleus{cfg: cfg}, nil
	case "serve_query":
		return &serveQuery{cfg: cfg}, nil
	case "fleet_mutate":
		return &fleetMutate{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"lib_core", "lib_nucleus", "serve_query", "fleet_mutate"}

// recorder collects what one client observed: op latencies by slot, the
// failure count, and — in a traced pass — spans.
type recorder struct {
	slot   [numSlots][]float64 // ms, as measured
	opName [numSlots]string    // the op that fills each slot
	ops    int
	failed int
	rounds int

	// Host-speed calibration (calib.go): slotRound and busy say which round
	// each sample and each ms of op time belong to; calib and calibWarm,
	// filled in by runRounds for the merged recorder, are the kernel's times
	// at the barrier before each round, with one more after the last. atRef
	// holds the same samples, and atRefBusy the same op time, brought to the
	// reference host speed by atReference.
	slotRound [numSlots][]int
	busy      []float64 // ms spent inside ops, per round
	calib     []float64
	calibWarm []float64
	atRef     [numSlots][]float64
	atRefBusy float64

	tr       *tracer
	cur      int  // root span of the op in progress or just finished
	opFailed bool // the op in progress or just finished already counted as failed
}

// do times one op. It reports whether the op itself succeeded, so callers
// skip the answer check of a request that never produced an answer.
func (r *recorder) do(slot int, name string, fn func() error) bool {
	if r.tr != nil {
		r.cur = r.tr.begin(0, name, false)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if r.tr != nil {
		r.tr.end(r.cur)
	}
	ms := float64(d.Nanoseconds()) / 1e6
	r.ops++
	for len(r.busy) <= r.rounds {
		r.busy = append(r.busy, 0)
	}
	r.busy[r.rounds] += ms
	if slot != unslotted {
		r.opName[slot] = name
		r.slot[slot] = append(r.slot[slot], ms)
		r.slotRound[slot] = append(r.slotRound[slot], r.rounds)
	}
	r.opFailed = false
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
	}
	return err == nil
}

// verify counts the op just finished as failed when its answer was wrong.
func (r *recorder) verify(err error) {
	if err != nil {
		r.fail(err)
	}
}

func (r *recorder) fail(err error) {
	if r.opFailed {
		return
	}
	r.opFailed = true
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "bench: failed op: %v\n", err)
	}
}

// failCheck counts a failed post-phase check, which belongs to no single op.
func (r *recorder) failCheck(err error) {
	r.opFailed = false
	r.fail(err)
}

// last is the latest sample of a slot, in ms.
func (r *recorder) last(slot int) float64 { return r.slot[slot][len(r.slot[slot])-1] }

// replay times work repeated on shadow state, or through the modules
// directly, after the op it belongs to, as a child of that op's root span.
// Like every span, it exists only in a traced pass.
func (r *recorder) replay(name string, fn func()) int {
	return r.spanUnder(r.cur, name, true, fn)
}

// probe times a layer call that belongs to no op: a root span of its own.
func (r *recorder) probe(name string, fn func()) {
	if r.tr == nil {
		return
	}
	root := r.tr.begin(0, "probe", false)
	r.spanUnder(root, name, false, fn)
	r.tr.end(root)
}

func (r *recorder) spanUnder(parent int, name string, replayed bool, fn func()) int {
	if r.tr == nil {
		return 0
	}
	id := r.tr.begin(parent, name, replayed)
	fn()
	r.tr.end(id)
	return id
}

func (r *recorder) count(name string, v float64) {
	if r.tr != nil {
		r.tr.count(name, v)
	}
}

// merge folds the per-client recorders of one phase into out.
func merge(out *recorder, recs []*recorder) {
	out.rounds, out.tr, out.opName = recs[0].rounds, recs[0].tr, recs[0].opName
	for _, r := range recs {
		for s := range r.slot {
			out.slot[s] = append(out.slot[s], r.slot[s]...)
			out.slotRound[s] = append(out.slotRound[s], r.slotRound[s]...)
		}
		for len(out.busy) < len(r.busy) {
			out.busy = append(out.busy, 0)
		}
		for round, ms := range r.busy {
			out.busy[round] += ms
		}
		out.ops += r.ops
		out.failed += r.failed
	}
}

// runRounds drives every client through whole rounds, starting at round
// index first, until stop says the phase is over. All op kinds are
// interleaved inside every round, so host drift hits every metric alike.
// The clients meet at a barrier between rounds, where the calibration
// kernel runs while nothing else does (calib.go).
func runRounds(w workload, first int, tr *tracer, stop func(done int) bool) *recorder {
	recs := make([]*recorder, w.clients())
	for c := range recs {
		recs[c] = &recorder{tr: tr}
	}
	out := &recorder{}
	barrier := func() {
		whole, warm := hostSpeed()
		out.calib = append(out.calib, whole)
		out.calibWarm = append(out.calibWarm, warm)
	}
	for done := 0; !stop(done); done++ {
		barrier()
		var wg sync.WaitGroup
		for c, rec := range recs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.round(c, first+done, rec)
				rec.rounds++
			}()
		}
		wg.Wait()
	}
	barrier()
	merge(out, recs)
	out.atReference()
	return out
}

// outcome is what one run prints.
type outcome struct {
	attempted int
	failed    int
	rounds    int
	metrics   map[string]float64
	calib     []float64 // traced pass: kernel samples of all four scripts
}

// setUpMedian sets the workload up cfg.setups times and keeps the last one
// running. setup_s is the median, as measured: one slow fsync or page-cache
// miss does not decide the figure.
func setUpMedian(cfg config) (workload, *recorder, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		w, err := newWorkload(cfg)
		if err != nil {
			return nil, nil, 0, err
		}
		warm := &recorder{}
		start := time.Now()
		err = w.setUp(warm)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			w.tearDown()
			return nil, nil, 0, fmt.Errorf("set-up: %w", err)
		}
		if i == cfg.setups-1 {
			return w, warm, median(times), nil
		}
		w.tearDown()
		runtime.GC()
	}
}

// runEndToEnd is the untraced run: set-up, the time-boxed measured phase,
// the checks, and the end-to-end metrics.
func runEndToEnd(cfg config) (*outcome, error) {
	w, warm, setupS, err := setUpMedian(cfg)
	if err != nil {
		return nil, err
	}
	defer w.tearDown()

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	rec := runRounds(w, cfg.size.warmRounds(cfg.workload), nil, func(int) bool {
		return !time.Now().Before(deadline)
	})
	rssMB, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := w.check(rec); err != nil {
		return nil, fmt.Errorf("check could not run: %w", err)
	}

	floor := cfg.minSamples
	if floor == 0 {
		floor = minSlotSamples
	}
	// Latencies and mix_per_s are at the reference host speed (calib.go);
	// setup_s and peak_rss_mb are as measured.
	m := map[string]float64{
		"setup_s":     setupS,
		"peak_rss_mb": rssMB,
		// Ops per second of the time clients spent waiting on ops. The
		// harness's own work between ops (input generation, oracles,
		// the calibration kernel) is not the system's throughput.
		"mix_per_s": float64(rec.ops) / (rec.atRefBusy / 1000 / float64(w.clients())),
	}
	for s, name := range slotNames {
		if len(rec.slot[s]) < floor {
			return nil, fmt.Errorf("%s/%s collected %d samples, fewer than %d: no percentile printed", cfg.workload, name, len(rec.slot[s]), floor)
		}
		m[name+"_p50_ms"] = percentile(rec.atRef[s], 0.5)
	}

	// For people: the round count, the failure ratio, and what the
	// reference speed did to the figures. None of it is a metric (README.md,
	// "Where this differs").
	if rec.rounds < quietRounds {
		fmt.Fprintf(os.Stderr, "bench: warning: %s ran %d rounds, fewer than %d\n", cfg.workload, rec.rounds, quietRounds)
	}
	attempted, failed := rec.ops+warm.ops, rec.failed+warm.failed
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d P=%d rounds=%d attempted=%d failed=%d fail_ratio=%.6f\n",
		cfg.workload, cfg.seed, cfg.threads, rec.rounds, attempted, failed, float64(failed)/float64(attempted))
	fmt.Fprintf(os.Stderr, "bench: calibration kernel p50 %.3f ms against %.1f nominal, its warm part %.3f against %.1f\n",
		median(rec.calib), calibNominalMs, median(rec.calibWarm), calibNominalWarmMs)
	for s, name := range slotNames {
		fmt.Fprintf(os.Stderr, "bench: %-4s %5d samples; as measured p50 %8.3f p75 %8.3f p90 %8.3f ms; at reference speed p50 %8.3f p75 %8.3f p90 %8.3f ms\n",
			name, len(rec.slot[s]), percentile(rec.slot[s], 0.5), percentile(rec.slot[s], 0.75), percentile(rec.slot[s], 0.9),
			percentile(rec.atRef[s], 0.5), percentile(rec.atRef[s], 0.75), percentile(rec.atRef[s], 0.9))
	}
	return &outcome{attempted: attempted, failed: failed, rounds: rec.rounds, metrics: m}, nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak_rss_mb: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak_rss_mb: no VmHWM line in /proc/self/status")
}
