package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDiscipline enforces the serving layer's lock-hold invariant, the
// static form of the PR 4 warm-seed deadlock fix: no blocking work while
// holding a registry-side mutex in internal/server.
//
// Two lock classes with different allowances:
//
//   - The per-name mutation lock (any mutex obtained from a function
//     named "mutationLock") intentionally serializes the durable mutation
//     pipeline — WAL appends, overlay repair, snapshot persistence — so
//     store and overlay work is allowed under it. Decomposition-sized
//     work (localhi/peel runs, warm seeding, instance builds) and channel
//     blocking are not: that is exactly the bug PR 4 shipped and fixed.
//
//   - Every other sync.Mutex/RWMutex in scope is a registry/bookkeeping
//     lock: no blocking effect of any kind may run under it (store or
//     file I/O, decomposition calls, channel operations, WaitGroup.Wait,
//     sleeps).
//
// The analysis is flow-approximate: held regions are tracked through
// statement lists (branch-local unlocks end the region for that branch
// only), defer Unlock holds to function end, and calls to same-package
// functions carry their transitively computed effects (a fixpoint over
// the package's call graph). Function literals launched via go run with
// an empty held set. Deliberate exceptions (e.g. commitBatch taking a
// sync slot under the mutation lock) carry lint-ignore suppressions with
// written justifications.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "no blocking call while holding a registry or per-name mutex",
	AppliesTo: func(path string) bool {
		return strings.HasPrefix(path, "nucleus/internal/server")
	},
	Run: runLockDiscipline,
}

// effect classifies blocking behavior.
type effect int

const (
	effChan   effect = 1 << iota // channel send/receive/select without default
	effWait                      // sync.WaitGroup.Wait
	effSleep                     // time.Sleep
	effStore                     // durable store / WAL methods
	effIO                        // file or network I/O
	effDecomp                    // decomposition-sized compute (localhi, peel, warm seeding, instance builds)
)

// mutationLockAllowed is the effect set the per-name mutation lock may
// hold across: the durable pipeline is the lock's whole purpose.
const mutationLockAllowed = effStore | effIO

func (e effect) describe() string {
	var parts []string
	for _, x := range []struct {
		e effect
		s string
	}{
		{effChan, "channel operation"},
		{effWait, "WaitGroup.Wait"},
		{effSleep, "sleep"},
		{effStore, "store/WAL call"},
		{effIO, "I/O"},
		{effDecomp, "decomposition-sized work"},
	} {
		if e&x.e != 0 {
			parts = append(parts, x.s)
		}
	}
	return strings.Join(parts, ", ")
}

// storeMethodNames classifies store-interface methods by name, so the
// analyzer works identically against nucleus/internal/store types and
// the fake stores in analyzer testdata.
var storeMethodNames = map[string]bool{
	"BeginBatch": true, "CommitBatch": true, "SaveSnapshot": true,
}

// decompFuncNames classifies decomposition entry points by name
// (package-path classification below catches the rest).
var decompFuncNames = map[string]bool{
	"WarmCoreNumbers": true, "WarmCoreNumbersOn": true,
	"WarmTrussNumbers": true, "WarmTrussNumbersOn": true,
}

// heavyPkgs maps module-internal package suffixes to the effect their
// exported functions carry.
var heavyPkgs = map[string]effect{
	"internal/localhi": effDecomp,
	"internal/peel":    effDecomp,
	"internal/densest": effDecomp,
	"internal/cliques": effDecomp,
	"internal/nucleus": effDecomp,
	"internal/store":   effStore,
}

// osIONames are the os-package entry points that reach the filesystem.
var osIONames = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "MkdirAll": true, "Mkdir": true, "Stat": true,
	"ReadDir": true, "Truncate": true,
}

func runLockDiscipline(pass *Pass) error {
	ld := &lockChecker{pass: pass, funcEffects: map[*types.Func]effect{}}
	ld.computeEffects()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ld.checkFunc(fd.Body)
			}
		}
	}
	return nil
}

type lockChecker struct {
	pass *Pass
	// funcEffects is the fixpoint of blocking effects per same-package
	// function, so a lock held across a local helper that (transitively)
	// appends to the WAL is still caught.
	funcEffects map[*types.Func]effect
}

// computeEffects runs a simple fixpoint over the package's functions:
// each function's effect set is the union of its direct blocking
// operations and the effects of same-package callees.
func (ld *lockChecker) computeEffects() {
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range ld.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := ld.pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			e := ld.bodyEffects(fd.Body)
			if e != ld.funcEffects[fn] {
				ld.funcEffects[fn] = e
				changed = true
			}
		}
	}
}

// bodyEffects computes the direct+transitive effects of a statement
// subtree, NOT descending into function literals (a closure only blocks
// when called; calls through closures are approximated as effect-free
// unless launched inline, which the checker walks separately).
func (ld *lockChecker) bodyEffects(body ast.Node) effect {
	var e effect
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			e |= effChan
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				e |= effChan
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				e |= effChan
			}
		case *ast.RangeStmt:
			if t := ld.pass.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					e |= effChan
				}
			}
		case *ast.CallExpr:
			e |= ld.callEffect(n)
		}
		return true
	}
	ast.Inspect(body, walk)
	return e
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

// callEffect classifies one call expression.
func (ld *lockChecker) callEffect(call *ast.CallExpr) effect {
	fn := calleeFunc(ld.pass.Info, call)
	if fn == nil {
		return 0
	}
	name := fn.Name()
	pkg := fn.Pkg()
	if pkg == nil {
		return 0
	}
	// Same-package callee: name-based store/decomp classification first
	// (covers interface methods declared in this package and the fakes in
	// analyzer testdata), then transitive effects from the fixpoint.
	if pkg == ld.pass.Pkg {
		if storeMethodNames[name] {
			return effStore
		}
		if decompFuncNames[name] {
			return effDecomp
		}
		return ld.funcEffects[fn]
	}
	path := pkg.Path()
	switch {
	case path == "time" && name == "Sleep":
		return effSleep
	case path == "sync" && name == "Wait":
		return effWait
	case path == "os" && (osIONames[name] || isMethodOf(fn, "File")):
		return effIO
	case path == "net/http" && (name == "Get" || name == "Post" || name == "Do" || name == "Head" || name == "PostForm"):
		return effIO
	case decompFuncNames[name]:
		return effDecomp
	case storeMethodNames[name]:
		return effStore
	}
	if suffix, ok := strings.CutPrefix(path, ld.pass.Prog.ModulePath+"/"); ok {
		// New* constructors in the heavy packages are cheap setup, not the
		// decomposition or store work the classification is after.
		if e, heavy := heavyPkgs[suffix]; heavy && ast.IsExported(name) && !strings.HasPrefix(name, "New") {
			return e
		}
	}
	return 0
}

// heldLock is one mutex the current flow path holds.
type heldLock struct {
	key      string
	pos      token.Pos
	mutation bool // obtained from mutationLock(): the durable-pipeline allowance applies
}

func (h *heldLock) allowed() effect {
	if h.mutation {
		return mutationLockAllowed
	}
	return 0
}

// checkFunc scans one function body with an empty held set; function
// literals reached via go/defer or assignment are scanned independently
// (a goroutine does not inherit its spawner's locks).
func (ld *lockChecker) checkFunc(body *ast.BlockStmt) {
	unlockers := ld.findUnlockerClosures(body)
	ld.scanStmts(body.List, map[string]*heldLock{}, unlockers)
	// Independently scan nested function literals with a fresh held set.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			ld.scanStmts(lit.Body.List, map[string]*heldLock{}, unlockers)
			return false
		}
		return true
	})
}

// findUnlockerClosures maps local closure variables whose body unlocks a
// mutex (the `unlock := func() { ... mu.Unlock() ... }` idiom) to the
// lock key they release.
func (ld *lockChecker) findUnlockerClosures(body *ast.BlockStmt) map[types.Object]string {
	out := map[types.Object]string{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := ld.pass.Info.Defs[id]
		if obj == nil {
			obj = ld.pass.Info.Uses[id]
		}
		if obj == nil {
			return true
		}
		var key string
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if k, op, isLock := ld.lockOp(call); isLock && (op == "Unlock" || op == "RUnlock") {
					key = k
				}
			}
			return true
		})
		if key != "" {
			out[obj] = key
		}
		return true
	})
	return out
}

// lockOp recognizes X.Lock/RLock/Unlock/RUnlock calls on sync mutexes and
// returns a stable key for X.
func (ld *lockChecker) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := ld.pass.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return ld.exprKey(sel.X), sel.Sel.Name, true
}

// exprKey renders a canonical key for a lock expression: the root
// object's identity plus the selector path, so e.mu and f.mu are distinct
// while two mentions of e.mu agree.
func (ld *lockChecker) exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := ld.pass.Info.Uses[e]; obj != nil {
			return fmt.Sprintf("%p", obj)
		}
		return e.Name
	case *ast.SelectorExpr:
		return ld.exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return ld.exprKey(e.X) + "[]"
	case *ast.CallExpr:
		return "call:" + ld.exprKey(e.Fun)
	default:
		return fmt.Sprintf("node@%d", e.Pos())
	}
}

// isMutationLock reports whether the locked expression traces to a call
// of a function named mutationLock (directly, `r.mutationLock(n).Lock()`,
// or via a local variable initialized from one).
func (ld *lockChecker) isMutationLock(e ast.Expr, fn *ast.BlockStmt) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		return calleeNamed(e, "mutationLock")
	case *ast.Ident:
		obj := ld.pass.Info.Uses[e]
		if obj == nil {
			return false
		}
		found := false
		ast.Inspect(fn, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || found {
				return !found
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(as.Rhs) {
					continue
				}
				def := ld.pass.Info.Defs[id]
				if def == nil {
					def = ld.pass.Info.Uses[id]
				}
				if def != obj {
					continue
				}
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && calleeNamed(call, "mutationLock") {
					found = true
				}
			}
			return true
		})
		return found
	}
	return false
}

func calleeNamed(call *ast.CallExpr, name string) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == name
	case *ast.SelectorExpr:
		return fun.Sel.Name == name
	}
	return false
}

// scanStmts walks a statement list tracking the held set. Control-flow
// statements recurse with a copy: an unlock inside a branch ends the
// region for that branch only (the fall-through path conservatively
// keeps holding).
func (ld *lockChecker) scanStmts(stmts []ast.Stmt, held map[string]*heldLock, unlockers map[types.Object]string) {
	enclosing := enclosingBlockOf(stmts)
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, op, isLock := ld.lockOp(call); isLock {
					switch op {
					case "Lock", "RLock":
						sel := call.Fun.(*ast.SelectorExpr)
						held[key] = &heldLock{
							key:      key,
							pos:      call.Pos(),
							mutation: ld.isMutationLock(sel.X, enclosing),
						}
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
				if key := ld.unlockerCall(call, unlockers); key != "" {
					delete(held, key)
					continue
				}
			}
			ld.checkBlockingIn(s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() holds to function end: nothing to update.
			// The deferred call itself runs after the region; skip it.
		case *ast.GoStmt:
			// The goroutine body runs with its own (empty) held set; the
			// spawn itself does not block.
		case *ast.IfStmt:
			ld.checkBlockingIn(s.Cond, held)
			if s.Init != nil {
				ld.checkBlockingIn(s.Init, held)
			}
			ld.scanStmts(s.Body.List, copyHeld(held), unlockers)
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					ld.scanStmts(e.List, copyHeld(held), unlockers)
				case *ast.IfStmt:
					ld.scanStmts([]ast.Stmt{e}, copyHeld(held), unlockers)
				}
			}
		case *ast.ForStmt:
			ld.checkBlockingIn(s.Cond, held)
			ld.scanStmts(s.Body.List, copyHeld(held), unlockers)
		case *ast.RangeStmt:
			ld.checkBlockingIn(s, held) // range over a channel blocks
			ld.scanStmts(s.Body.List, copyHeld(held), unlockers)
		case *ast.SwitchStmt:
			ld.checkBlockingIn(s.Tag, held)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					ld.scanStmts(cc.Body, copyHeld(held), unlockers)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					ld.scanStmts(cc.Body, copyHeld(held), unlockers)
				}
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) && len(held) > 0 {
				ld.reportHeld(s.Pos(), effChan, held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					ld.scanStmts(cc.Body, copyHeld(held), unlockers)
				}
			}
		case *ast.BlockStmt:
			ld.scanStmts(s.List, copyHeld(held), unlockers)
		case *ast.LabeledStmt:
			ld.scanStmts([]ast.Stmt{s.Stmt}, held, unlockers)
		default:
			ld.checkBlockingIn(stmt, held)
		}
	}
}

// unlockerCall resolves a call to a local unlocker closure to the lock
// key it releases.
func (ld *lockChecker) unlockerCall(call *ast.CallExpr, unlockers map[types.Object]string) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	obj := ld.pass.Info.Uses[id]
	if obj == nil {
		return ""
	}
	return unlockers[obj]
}

// checkBlockingIn reports blocking operations within one statement or
// expression subtree (not descending into nested statements' bodies —
// the caller recurses into those with its own held copies — nor into
// function literals).
func (ld *lockChecker) checkBlockingIn(n ast.Node, held map[string]*heldLock) {
	if n == nil || len(held) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.BlockStmt:
			return false
		case *ast.SendStmt:
			ld.reportHeld(m.Pos(), effChan, held)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				ld.reportHeld(m.Pos(), effChan, held)
			}
		case *ast.RangeStmt:
			if t := ld.pass.Info.TypeOf(m.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					ld.reportHeld(m.X.Pos(), effChan, held)
				}
			}
			return false
		case *ast.CallExpr:
			if e := ld.callEffect(m); e != 0 {
				ld.reportHeld(m.Pos(), e, held)
			}
		}
		return true
	})
}

func (ld *lockChecker) reportHeld(pos token.Pos, e effect, held map[string]*heldLock) {
	for _, h := range held {
		if bad := e &^ h.allowed(); bad != 0 {
			kind := "mutex"
			if h.mutation {
				kind = "per-name mutation lock"
			}
			ld.pass.Reportf(pos, "%s while holding %s (locked at line %d)",
				bad.describe(), kind, ld.pass.Fset.Position(h.pos).Line)
		}
	}
}

func copyHeld(held map[string]*heldLock) map[string]*heldLock {
	out := make(map[string]*heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isMethodOf(fn *types.Func, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

// enclosingBlockOf fabricates a block wrapping the statement list so
// isMutationLock can search assignments in scope. (The list is the body
// being scanned; wrapping loses no information for that search.)
func enclosingBlockOf(stmts []ast.Stmt) *ast.BlockStmt {
	return &ast.BlockStmt{List: stmts}
}
