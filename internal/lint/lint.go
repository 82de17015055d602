// Package lint is nucleuslint's analysis framework: a small, stdlib-only
// reimplementation of the golang.org/x/tools/go/analysis surface
// (Analyzer / Pass / Diagnostic) plus a package loader that type-checks
// the whole dependency universe from source. The toolchain's go/types and
// go/parser do all the heavy lifting; no third-party module is required,
// so the linter builds and runs in the same sandbox as the code it
// checks.
//
// The analyzers themselves encode the two invariants no runtime test covers
// in full: lockdiscipline (no blocking work under a server lock) and
// syncerr (no discarded Sync/Close/Flush error on the durability path).
// The invariants a test does hold — zero-allocation sweeps, a stoppable
// anytime run, atomic access to shared counters — are left to those tests
// (docs/DEVELOPMENT.md). The suite is wired into CI via cmd/nucleuslint.
// Findings are suppressed per line with
//
//	//nucleus:lint-ignore <analyzer> <justification>
//
// where the justification is mandatory: an unjustified suppression is
// itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one static check. Run inspects a single package and reports
// findings through the Pass.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //nucleus:lint-ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts. The linttest harness bypasses it so testdata
	// packages exercise every analyzer regardless of path.
	AppliesTo func(pkgPath string) bool
	// Run performs the analysis and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, including in-package _test.go
	// files (external test packages are separate passes).
	Files []*ast.File
	// Path is the import path under analysis ("nucleus/internal/store";
	// external test packages carry a "_test" suffix).
	Path string
	Pkg  *types.Package
	Info *types.Info
	// Prog is the enclosing load: its packages and module metadata.
	Prog *Program

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Program is one loaded set of packages.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Pkgs       []*Package
}

// Package is one package ready for analysis.
type Package struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
