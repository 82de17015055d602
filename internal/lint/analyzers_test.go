package lint_test

import (
	"strings"
	"testing"

	"nucleus/internal/lint"
	"nucleus/internal/lint/linttest"
)

func TestLockDiscipline(t *testing.T) {
	linttest.Run(t, lint.LockDiscipline, "testdata/lockdiscipline")
}

func TestSyncErr(t *testing.T) {
	linttest.Run(t, lint.SyncErr, "testdata/syncerr")
}

// TestSuppressionProblems exercises the mechanism findings directly:
// they land on the directive's own line, where a want comment cannot
// sit.
func TestSuppressionProblems(t *testing.T) {
	prog, err := lint.LoadAdHoc("testdata/suppress")
	if err != nil {
		t.Fatalf("loading: %v", err)
	}
	diags, err := lint.Run(prog, []*lint.Analyzer{lint.SyncErr}, lint.RunOptions{ForceApply: true})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	var stale, unjustified int
	for _, d := range diags {
		switch {
		case d.Analyzer == "lint" && strings.Contains(d.Message, "suppresses nothing"):
			stale++
		case d.Analyzer == "lint" && strings.Contains(d.Message, "no justification"):
			unjustified++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if stale != 1 {
		t.Errorf("stale-ignore findings = %d, want 1", stale)
	}
	if unjustified != 1 {
		t.Errorf("missing-justification findings = %d, want 1", unjustified)
	}
}
