package lint

import "fmt"

// RunOptions configures one analysis run.
type RunOptions struct {
	// ForceApply runs every analyzer on every package, ignoring
	// Analyzer.AppliesTo (used by the linttest harness, whose testdata
	// package paths never match the production scopes).
	ForceApply bool
}

// Run applies the analyzers to the program's packages, filters
// suppressed findings, and appends suppression-mechanism findings
// (missing justification, stale ignore). The result is sorted by
// position.
func Run(prog *Program, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range prog.Pkgs {
		idx := buildSuppressions(prog.Fset, pkg.Files)
		for _, a := range analyzers {
			if !opts.ForceApply && a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Path:     pkg.Path,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Prog:     prog,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range pass.diags {
				if !idx.suppressed(d) {
					all = append(all, d)
				}
			}
		}
		all = append(all, idx.problems()...)
	}
	sortDiagnostics(all)
	return all, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{LockDiscipline, SyncErr}
}
