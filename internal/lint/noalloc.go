package lint

import (
	"go/ast"
	"go/types"
)

// Noalloc enforces the zero-allocation contract of the fused sweep
// kernels: a function annotated //nucleus:noalloc must not contain any
// heap-allocating construct. The runtime counterparts are localhi's
// TestFusedKernelZeroAlloc and TestGenericKernelZeroAlloc; this analyzer
// is the compile-time form, so a regression is caught before a test runs.
//
// Flagged constructs: append (may grow the backing array), make and new,
// slice/map composite literals and &-literals, capturing closures,
// goroutine launches, fmt calls, string concatenation and string<->[]byte
// conversions, interface boxing (concrete argument to interface
// parameter, or an explicit conversion to an interface type), and calls
// to module-internal functions not themselves annotated noalloc (the
// contract is only as strong as the call tree). Amortized-zero growth
// paths (grow-once scratch buffers) carry per-line lint-ignore
// suppressions with written justifications.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc:  "functions annotated //nucleus:noalloc must not heap-allocate",
	Run:  runNoalloc,
}

// noallocCalleeAllowed lists std packages whose functions are known not
// to allocate on any path used by the kernels.
var noallocCalleeAllowed = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

func runNoalloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, dirNoalloc) {
				continue
			}
			checkNoallocBody(pass, fd)
		}
	}
	return nil
}

func checkNoallocBody(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNoallocCall(pass, fd, n)
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "%s: slice/map composite literal allocates", noallocWhere(fd))
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "%s: &composite literal allocates", noallocWhere(fd))
				}
			}
		case *ast.FuncLit:
			if captured := closureCaptures(pass, n); len(captured) > 0 {
				pass.Reportf(n.Pos(), "%s: closure capturing %s allocates", noallocWhere(fd), captured[0])
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s: go statement allocates a goroutine", noallocWhere(fd))
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := info.TypeOf(n); t != nil && isString(t) {
					pass.Reportf(n.Pos(), "%s: string concatenation allocates", noallocWhere(fd))
				}
			}
		}
		return true
	})
}

// checkNoallocCall classifies one call inside a noalloc function.
func checkNoallocCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Info
	where := noallocWhere(fd)

	// Type conversions: T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if len(call.Args) == 1 {
			from := info.TypeOf(call.Args[0])
			switch {
			case isInterface(to) && from != nil && !isInterface(from) && !isUntypedNil(info, call.Args[0]):
				pass.Reportf(call.Pos(), "%s: conversion to interface type boxes and may allocate", where)
			case isStringBytesConv(from, to):
				pass.Reportf(call.Pos(), "%s: string/[]byte conversion copies and allocates", where)
			}
		}
		return
	}

	callee := calleeFunc(info, call)

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				pass.Reportf(call.Pos(), "%s: append may grow its backing array and allocate", where)
			case "make":
				if makeHasNonConstSize(info, call) {
					pass.Reportf(call.Pos(), "%s: make with non-constant size allocates", where)
				} else {
					pass.Reportf(call.Pos(), "%s: make allocates; use a caller-owned buffer", where)
				}
			case "new":
				pass.Reportf(call.Pos(), "%s: new allocates", where)
			}
			return
		}
	}

	// Interface boxing through ordinary call arguments.
	if callee != nil || info.TypeOf(call.Fun) != nil {
		reportBoxedArgs(pass, fd, call)
	}

	if callee == nil {
		return // call through a function value or interface method: boxing checked above
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return // error method etc.
	}
	switch {
	case pkg.Path() == "fmt":
		pass.Reportf(call.Pos(), "%s: fmt.%s allocates", where, callee.Name())
	case noallocCalleeAllowed[pkg.Path()]:
		// Known alloc-free std helpers.
	case pkg.Path() == pass.Pkg.Path() || isModulePath(pass.Prog.ModulePath, pkg.Path()):
		// Module-internal call: the callee must carry the annotation too,
		// or the contract silently leaks through the call tree.
		if !pass.Prog.NoallocFuncs[FuncKey(callee)] {
			pass.Reportf(call.Pos(), "%s: call to %s.%s, which is not annotated //nucleus:noalloc", where, pkg.Name(), callee.Name())
		}
	}
}

// reportBoxedArgs flags concrete arguments passed to interface
// parameters.
func reportBoxedArgs(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		if pt == nil || !isInterface(pt) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at != nil && !isInterface(at) && !isUntypedNil(pass.Info, arg) {
			pass.Reportf(arg.Pos(), "%s: passing %s to interface parameter boxes and may allocate", noallocWhere(fd), at)
		}
	}
}

// closureCaptures returns the names of outer variables a func literal
// captures (a capturing closure is heap-allocated; a capture-free one is
// a static singleton and free).
func closureCaptures(pass *Pass, lit *ast.FuncLit) []string {
	inner := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				inner[obj] = true
			}
		}
		return true
	})
	var captured []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || inner[obj] || seen[obj] || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		seen[obj] = true
		captured = append(captured, v.Name())
		return true
	})
	return captured
}

func noallocWhere(fd *ast.FuncDecl) string {
	return fd.Name.Name + " is //nucleus:noalloc"
}

func makeHasNonConstSize(info *types.Info, call *ast.CallExpr) bool {
	for _, arg := range call.Args[1:] {
		if tv, ok := info.Types[arg]; !ok || tv.Value == nil {
			return true
		}
	}
	return false
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isStringBytesConv(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	return (isString(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isString(to))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// calleeFunc resolves the static callee of a call, nil for builtins,
// conversions and calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func isModulePath(module, path string) bool {
	if module == "" {
		return false
	}
	return path == module || len(path) > len(module) && path[:len(module)] == module && path[len(module)] == '/'
}
