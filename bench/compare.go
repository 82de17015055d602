package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// oneRun is one end-to-end run as a set of runs stores it.
type oneRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

type runSetFile struct {
	Runs []oneRun `json:"runs"`
}

// runSet runs every workload n times, each run its own process of this
// same program, and writes the results to path. Seeds count up from seed,
// and the workloads alternate inside each seed, so a drift of the host
// spreads over all of them.
func runSet(n int, seed int64, seconds float64, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set runSetFile
	for i := 0; i < n; i++ {
		for _, w := range workloadNames {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			run := oneRun{Workload: w, Seed: s}
			if err := json.Unmarshal(lines[len(lines)-1], &run.result); err != nil {
				return fmt.Errorf("%s seed %d: last line is not a result: %w", w, s, err)
			}
			set.Runs = append(set.Runs, run)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// verdict applies the rule for measuring in a small sandbox to one metric
// of one workload. a and b are paired run by run; better says which way
// the metric improves; bound is the share of a's median by which b may be
// worse before it counts as a regression.
//
//   - better: b wins at least nine tenths of the pairs (ties count for
//     neither side) and the medians differ by more than the distance
//     between a's own quartiles;
//   - worse: b's median is worse than a's by more than the bound;
//   - unresolved: a's own runs spread wider than the bound, so "no worse
//     than the bound" cannot be told — unless every run of b reads better
//     than every run of a;
//   - same: anything else.
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	sign := 1.0 // after this, larger is worse
	if better == "higher" {
		sign = -1
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*b[i] < sign*a[i] {
			wins++
		}
	}
	winShare := float64(wins) / float64(pairs)
	q1, medA, q3 := quartiles(a)
	medB := median(b)
	worseBy := sign * (medB - medA) / medA

	allBetter := true
	for _, y := range b {
		for _, x := range a {
			if sign*y >= sign*x {
				allBetter = false
			}
		}
	}
	switch {
	case winShare >= 0.9 && sign*(medB-medA) < 0 && sign*(medA-medB) > q3-q1:
		return "better", winShare
	case worseBy > bound:
		return "worse", winShare
	case (q3-q1)/medA > bound && !allBetter:
		return "unresolved", winShare
	}
	return "same", winShare
}

// compareSets prints one row per workload and end-to-end metric.
func compareSets(w io.Writer, a, b runSetFile) error {
	group := func(set runSetFile) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range set.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
		return out
	}
	ga, gb := group(a), group(b)
	for _, set := range []runSetFile{a, b} {
		for _, r := range set.Runs {
			if r.Failed != 0 || !r.Correct {
				fmt.Fprintf(w, "%s seed %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	fmt.Fprintf(w, "%-28s %5s %12s %12s %12s   %12s %12s %12s %8s %5s  %s\n",
		"workload/metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B vs A", "wins", "verdict")
	for _, wl := range workloadNames {
		for _, def := range endToEnd {
			xa, xb := ga[wl][def.Name], gb[wl][def.Name]
			if len(xa) < 2 || len(xb) < 2 {
				return fmt.Errorf("%s/%s: a side has fewer than two runs", wl, def.Name)
			}
			v, wins := verdict(xa, xb, def.Better, def.Bound)
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			fmt.Fprintf(w, "%-28s %5s %12.4f %12.4f %12.4f   %12.4f %12.4f %12.4f %+7.1f%% %5.2f  %s\n",
				wl+"/"+def.Name, def.Unit, a1, a2, a3, b1, b2, b3, 100*(b2-a2)/a2, wins, v)
		}
	}
	return nil
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	var sets [2]runSetFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	return compareSets(w, sets[0], sets[1])
}
