package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive names. All project annotations share the "//nucleus:" prefix
// so a grep for `nucleus:` finds every machine-read comment in the tree.
const (
	// dirLintIgnore suppresses one analyzer on one line:
	//   //nucleus:lint-ignore <analyzer> <justification>
	dirLintIgnore = "lint-ignore"
	// dirIgnoreErr discards a Sync/Close/Flush error explicitly:
	//   //nucleus:ignore-err <justification>
	dirIgnoreErr = "ignore-err"
)

// directive is one parsed //nucleus:<name> <args> comment.
type directive struct {
	name string
	args string // remainder after the name, space-trimmed
	pos  token.Pos
	// ownLine is true when the comment is alone on its line (it then
	// applies to the following line); false for trailing comments (which
	// apply to their own line).
	ownLine bool
}

// parseDirective extracts a //nucleus: directive from one comment line.
func parseDirective(c *ast.Comment) (directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//nucleus:")
	if !ok {
		return directive{}, false
	}
	name, args, _ := strings.Cut(text, " ")
	return directive{name: strings.TrimSpace(name), args: strings.TrimSpace(args), pos: c.Pos()}, true
}

// fileDirectives collects every //nucleus: directive of a file, resolving
// whether each sits on its own line or trails code.
func fileDirectives(fset *token.FileSet, f *ast.File) []directive {
	var out []directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			d, ok := parseDirective(c)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			d.ownLine = pos.Column == 1 || onlyWhitespaceBefore(fset, f, c)
			out = append(out, d)
		}
	}
	return out
}

// onlyWhitespaceBefore reports whether nothing but indentation precedes
// the comment on its line, i.e. no AST node of the file starts or ends on
// the same line before the comment. The start check matters for lines
// like `for {` or `select {`: the statement starts there but nothing ends
// there, yet a comment after the brace plainly trails code.
func onlyWhitespaceBefore(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	own := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !own {
			return false
		}
		switch n.(type) {
		case *ast.File:
			// The file spans every line without owning any.
			return true
		}
		if fset.Position(n.Pos()).Line == line && n.Pos() < c.Pos() {
			own = false
			return false
		}
		// A node ending on the comment's line before the comment means the
		// comment trails code.
		if fset.Position(n.End()).Line == line && n.End() <= c.Pos() {
			switch n.(type) {
			case *ast.BlockStmt, *ast.FuncDecl, *ast.GenDecl:
				// Containers may span the line without owning it.
			default:
				own = false
				return false
			}
		}
		return true
	})
	return own
}

// suppressionIndex answers "is this diagnostic suppressed?" for one file
// set: a //nucleus:lint-ignore <analyzer> comment suppresses matching
// diagnostics on its own line (trailing form) or on the following line
// (own-line form).
type suppressionIndex struct {
	// byLine maps (filename, line, analyzer) to the suppression's
	// justification (may be empty — reported as a finding by the runner).
	byLine map[suppressKey]*suppression
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

type suppression struct {
	pos           token.Position
	justification string
	used          bool
}

// buildSuppressions indexes the lint-ignore directives of a package.
func buildSuppressions(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{byLine: map[suppressKey]*suppression{}}
	for _, f := range files {
		for _, d := range fileDirectives(fset, f) {
			if d.name != dirLintIgnore {
				continue
			}
			analyzer, justification, _ := strings.Cut(d.args, " ")
			pos := fset.Position(d.pos)
			line := pos.Line
			if d.ownLine {
				line++ // an own-line comment guards the next line
			}
			idx.byLine[suppressKey{pos.Filename, line, analyzer}] = &suppression{
				pos:           pos,
				justification: strings.TrimSpace(justification),
			}
		}
	}
	return idx
}

// suppressed consumes a matching suppression for the diagnostic, if any.
func (idx *suppressionIndex) suppressed(d Diagnostic) bool {
	s, ok := idx.byLine[suppressKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]
	if !ok {
		return false
	}
	s.used = true
	return true
}

// problems reports suppression-mechanism findings: every lint-ignore must
// carry a written justification, and must actually suppress something —
// a stale ignore is noise that hides future regressions.
func (idx *suppressionIndex) problems() []Diagnostic {
	var out []Diagnostic
	for key, s := range idx.byLine {
		switch {
		case s.justification == "":
			out = append(out, Diagnostic{
				Analyzer: "lint",
				Pos:      s.pos,
				Message: "lint-ignore for " + key.analyzer +
					" has no justification; write //nucleus:lint-ignore " + key.analyzer + " <why this is safe>",
			})
		case !s.used:
			out = append(out, Diagnostic{
				Analyzer: "lint",
				Pos:      s.pos,
				Message:  "lint-ignore for " + key.analyzer + " suppresses nothing on its line; remove it",
			})
		}
	}
	return out
}
