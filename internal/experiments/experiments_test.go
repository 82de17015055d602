package experiments

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"nucleus/internal/nucleus"
)

// The experiment drivers are exercised on the cheapest dataset ("fb") to
// keep the suite fast; cmd/experiments runs the full sweeps.

func TestFig1aConvergenceOutput(t *testing.T) {
	var sb strings.Builder
	Fig1aConvergence(&sb, nucleus.FamilyCore, []string{"fb"}, 4)
	out := sb.String()
	if !strings.Contains(out, "iter") || !strings.Contains(out, "fb") {
		t.Fatalf("missing header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 {
		t.Fatalf("too few rows: %q", out)
	}
	// Kendall-Tau column must be monotone non-decreasing toward 1.
	var prev float64 = -2
	for _, line := range lines[2:] {
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscan(fields[len(fields)-1], &v); err != nil {
			t.Fatalf("bad row %q: %v", line, err)
		}
		if v+1e-9 < prev {
			t.Fatalf("Kendall-Tau decreased: %v after %v", v, prev)
		}
		prev = v
	}
}

func TestTable3Output(t *testing.T) {
	var sb strings.Builder
	Table3(&sb, []string{"fb"})
	if !strings.Contains(sb.String(), "facebook") {
		t.Fatalf("missing dataset row: %q", sb.String())
	}
}

func TestTable4Output(t *testing.T) {
	var sb strings.Builder
	Table4Iterations(&sb, nucleus.FamilyCore, []string{"fb"})
	out := sb.String()
	if !strings.Contains(out, "SND") || !strings.Contains(out, "levels-bound") {
		t.Fatalf("missing columns: %q", out)
	}
}

func TestTable5Output(t *testing.T) {
	var sb strings.Builder
	Table5Runtimes(&sb, nucleus.FamilyCore, []string{"fb"})
	if !strings.Contains(sb.String(), "peel") {
		t.Fatalf("missing runtimes: %q", sb.String())
	}
}

func TestPlateausOutput(t *testing.T) {
	var sb strings.Builder
	Plateaus(&sb, nucleus.FamilyCore, "fb", 4)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few trajectory rows: %q", sb.String())
	}
	var sb2 strings.Builder
	PlateauStats(&sb2, nucleus.FamilyCore, []string{"fb"})
	if !strings.Contains(sb2.String(), "plateau") {
		t.Fatalf("missing plateau stats: %q", sb2.String())
	}
}

func TestBoundOutput(t *testing.T) {
	var sb strings.Builder
	Bound(&sb, nucleus.FamilyCore, []string{"fb"})
	if !strings.Contains(sb.String(), "levels") {
		t.Fatalf("missing bound output: %q", sb.String())
	}
}

func TestTradeoffOutput(t *testing.T) {
	var sb strings.Builder
	Tradeoff(&sb, nucleus.FamilyCore, "fb")
	if !strings.Contains(sb.String(), "kendall") {
		t.Fatalf("missing tradeoff output: %q", sb.String())
	}
}

func TestQueryOutput(t *testing.T) {
	var sb strings.Builder
	Query(&sb, "fb", 8, []int{0, 1}, 1)
	if !strings.Contains(sb.String(), "mean-rel-err") {
		t.Fatalf("missing query output: %q", sb.String())
	}
}

func TestOrderAblationOutput(t *testing.T) {
	var sb strings.Builder
	OrderAblation(&sb, nucleus.FamilyCore, []string{"fb"}, 1)
	rows := map[string][]string{} // order → its row's fields
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == "fb" {
			rows[f[1]] = f
		}
	}
	for _, order := range []string{"natural", "degree", "peel", "rev-peel", "random"} {
		f, ok := rows[order]
		if !ok {
			t.Fatalf("missing %s row: %q", order, sb.String())
		}
		if visits, err := strconv.Atoi(f[3]); err != nil || visits <= 0 {
			t.Fatalf("%s row reports visits %q", order, f[3])
		}
	}
	// The peel order converges in one iteration (Theorem 4).
	if it := rows["peel"][2]; it != "1" {
		t.Fatalf("peel-order iterations = %s, want 1", it)
	}
}

// TestFig1bScalabilityOutput checks the shape of the measured table, not
// its times: per dataset the sequential peel comes first and is the
// baseline of the last column, and AND follows at 1 thread and up to the
// host's; nothing else is timed.
func TestFig1bScalabilityOutput(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, dec := range []nucleus.Family{nucleus.FamilyCore, nucleus.FamilyTruss} {
		var sb strings.Builder
		Fig1bScalability(&sb, dec, []string{"fb"})
		out := sb.String()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		for _, want := range []string{fmt.Sprintf("GOMAXPROCS=%d", procs), label(dec)} {
			if !strings.Contains(lines[0], want) {
				t.Fatalf("%s: header does not name %q: %q", dec, want, lines[0])
			}
		}
		seen := map[string][]int{}
		for i, line := range lines[2:] {
			fields := strings.Fields(line)
			var threads int
			if len(fields) != 5 {
				t.Fatalf("%s: bad row %q", dec, line)
			}
			if _, err := fmt.Sscanf(fields[2], "threads=%d", &threads); err != nil {
				t.Fatalf("%s: bad row %q: %v", dec, line, err)
			}
			if threads < 1 || threads > procs {
				t.Fatalf("%s: row %q: threads outside [1, GOMAXPROCS=%d]", dec, line, procs)
			}
			if (i == 0) != (fields[1] == "peel") || fields[1] == "peel" && (threads != 1 || fields[4] != "1.00") {
				t.Fatalf("%s: the sequential peel must be the first row and its own baseline: %q", dec, line)
			}
			seen[fields[1]] = append(seen[fields[1]], threads)
		}
		and := seen["AND+notif"]
		if len(and) == 0 || and[0] != 1 || and[len(and)-1] != procs {
			t.Fatalf("%s: AND rows at threads %v, want 1 … %d: %q", dec, and, procs, out)
		}
		if len(seen) != 2 {
			t.Fatalf("%s: engines %v, want only peel and AND+notif", dec, seen)
		}
	}
}

// TestDecString: the tables name each decomposition by its (r,s).
func TestDecString(t *testing.T) {
	if label(nucleus.FamilyCore) != "(1,2)" || label(nucleus.FamilyTruss) != "(2,3)" || label(nucleus.FamilyN34) != "(3,4)" {
		t.Fatal("bad (r,s) labels")
	}
}

func TestDensityQualityOutput(t *testing.T) {
	var sb strings.Builder
	DensityQuality(&sb, "fb", 5)
	out := sb.String()
	if !strings.Contains(out, "charikar") || !strings.Contains(out, "(3,4)") {
		t.Fatalf("missing density rows: %q", out)
	}
}
