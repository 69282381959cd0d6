package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Per-function summaries, propagated over the call graph to a fixed point.
// A summary answers, without re-walking the callee at every call site:
//
//   - Acquires: which global lock classes the function may take, itself or
//     transitively (deadlockcycle's order-graph input);
//   - Blocks: whether it may park the goroutine on a channel op, an fsync,
//     or network I/O, with a human-readable cause chain (deadlockcycle's
//     held-across-blocking input);
//   - HasCtx / CtxDown: whether it receives a context.Context (literals
//     inherit lexically), and whether some ctx-bearing function reaches it
//     through the call graph (ctxflow's "below an entry point" test).
//
// The propagation is a monotone worklist over the sorted function keys, so
// the result — including the deterministic cause/witness strings used in
// diagnostics — is byte-identical regardless of load order.

// Summary is the propagated per-function analysis state.
type Summary struct {
	// Acquires maps global lock classes (see lockClass) the function may
	// acquire, directly or via callees. Function-local mutexes are
	// excluded: they cannot participate in cross-function ordering.
	Acquires map[string]bool
	// Blocks is true when the function may perform a blocking operation.
	Blocks bool
	// BlockCause describes the first blocking cause in deterministic
	// order, e.g. "channel receive" or "(*os.File).Sync (via
	// (*DurableStore).appendLocked)".
	BlockCause string
	// HasCtx reports a context.Context parameter (or, for a literal, a
	// lexically enclosing function that has one).
	HasCtx bool
	// CtxDown reports that a ctx-bearing function reaches this one through
	// module call edges, so a context could have been plumbed to it.
	CtxDown bool
	// CtxWitness names one ctx-bearing (or ctx-down) caller proving
	// CtxDown.
	CtxWitness string
}

// lockClass canonicalizes the receiver of a sync.Mutex/RWMutex method call
// into a (class, display) pair. Global classes — struct fields and
// package-level vars — use the defining package path and type, so the same
// lock seen from different analysis units lands in the same class. Local
// mutexes get a per-function class that never collides globally.
func lockClass(fi *FuncInfo, x ast.Expr) (class, display string) {
	pkg := fi.Pkg
	x = ast.Unparen(x)
	if star, ok := x.(*ast.StarExpr); ok {
		x = ast.Unparen(star.X)
	}
	switch e := x.(type) {
	case *ast.SelectorExpr:
		if sel := pkg.Info.Selections[e]; sel != nil {
			if fv, ok := sel.Obj().(*types.Var); ok && fv.IsField() {
				recv := sel.Recv()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
					class = named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fv.Name()
					display = named.Obj().Name() + "." + fv.Name()
					return class, display
				}
			}
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && v.Pkg() != nil && !v.IsField() {
			if v.Parent() == v.Pkg().Scope() {
				class = v.Pkg().Path() + "." + v.Name()
				return class, v.Name()
			}
		}
	}
	// Function-local or unrecognized shape: unique per function.
	return "local:" + fi.Key + ":" + exprString(x), exprString(x)
}

// mutexMethod matches a call to a locking method of sync.Mutex/RWMutex
// (directly or through embedding) and returns the receiver expression and
// verb.
func mutexMethod(pkg *Package, call *ast.CallExpr) (recv ast.Expr, verb string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	s := pkg.Info.Selections[sel]
	if s == nil {
		return nil, "", false
	}
	fn, isFn := s.Obj().(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// --- direct blocking-operation detection ---

// blockingExternal names the cause when fn (a call that leaves the module)
// is a known goroutine-parking entry point; "" otherwise. The list is
// deliberately narrow: constructors and accessors never appear.
func blockingExternal(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "net/http":
		if httpIOFuncs[fn.Name()] || httpIOMethods[fn.Name()] {
			return "net/http." + fn.Name() + " (network I/O)"
		}
	case "net":
		if netIOFuncs[fn.Name()] {
			return "net." + fn.Name() + " (network I/O)"
		}
	case "os":
		if fn.Name() == "Sync" {
			return "(*os.File).Sync (fsync)"
		}
	}
	return ""
}

// directBlock describes a blocking operation performed by a statement or
// expression node of fi's own body, or "" when n does not block.
func directBlock(fi *FuncInfo, n ast.Node) string {
	switch x := n.(type) {
	case *ast.SendStmt:
		return "channel send"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return "channel receive"
		}
	case *ast.RangeStmt:
		if t := fi.Pkg.Info.TypeOf(x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				return "range over channel"
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				return "" // has a default clause: non-blocking poll
			}
		}
		return "select"
	}
	return ""
}

// --- held-lock scanning (deadlockcycle's per-site input) ---

// lockAcq records one acquisition with the classes already held there.
type lockAcq struct {
	Class, Display string
	Verb           string
	Pos            token.Pos
	Held           []heldLock
}

// heldLock is one element of the held stack.
type heldLock struct {
	Class, Display string
	Pos            token.Pos
}

// heldCall is a resolved call site reached with locks held.
type heldCall struct {
	Site *CallSite
	Held []heldLock
}

// heldBlock is a direct blocking operation reached with locks held.
type heldBlock struct {
	Cause string
	Pos   token.Pos
	Held  []heldLock
}

// heldScan is the result of scanning one function with the held-lock state
// machine.
type heldScan struct {
	Acqs   []lockAcq
	Calls  []heldCall
	Blocks []heldBlock
}

// scanHeld runs the state machine over fi's own body. The model matches
// lockdiscipline's: statement lists are scanned linearly; a branch inherits
// the held stack at entry and its releases do not escape; an explicit
// Unlock pops the class; a deferred Unlock keeps the lock held through the
// rest of the function (which is exactly the held-across semantics the
// deadlock rule needs).
func scanHeld(fi *FuncInfo) *heldScan {
	s := &heldScan{}
	callIndex := make(map[*ast.CallExpr]*CallSite, len(fi.Calls))
	for _, cs := range fi.Calls {
		callIndex[cs.Call] = cs
	}
	s.walkList(fi, callIndex, fi.Body.List, nil)
	return s
}

func (s *heldScan) walkList(fi *FuncInfo, calls map[*ast.CallExpr]*CallSite, list []ast.Stmt, held []heldLock) {
	// held is treated as immutable by children: copy-on-write via append
	// with full reslice below.
	cur := held
	for _, st := range list {
		switch x := st.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				if recv, verb, ok := mutexMethod(fi.Pkg, call); ok {
					class, disp := lockClass(fi, recv)
					switch verb {
					case "Lock", "RLock":
						s.Acqs = append(s.Acqs, lockAcq{Class: class, Display: disp, Verb: verb, Pos: call.Pos(), Held: append([]heldLock(nil), cur...)})
						cur = append(cur[:len(cur):len(cur)], heldLock{Class: class, Display: disp, Pos: call.Pos()})
					case "Unlock", "RUnlock":
						cur = removeHeld(cur, class)
					}
					continue
				}
			}
			s.scanExpr(fi, calls, x, cur)
		case *ast.GoStmt:
			// The spawned call runs on another goroutine: only its argument
			// expressions are evaluated here.
			for _, a := range x.Call.Args {
				s.scanNode(fi, calls, a, cur)
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the remainder; other
			// deferred calls run at return, not here — only their argument
			// expressions are evaluated at this point.
			if _, _, ok := mutexMethod(fi.Pkg, x.Call); ok {
				continue
			}
			for _, a := range x.Call.Args {
				s.scanNode(fi, calls, a, cur)
			}
		default:
			children := childStmtLists(st)
			if len(children) > 0 {
				// Scan the statement's own header expressions (conditions,
				// select comm clauses) against the current held stack.
				s.scanHeader(fi, calls, st, cur)
				for _, child := range children {
					s.walkList(fi, calls, child, cur)
				}
			} else {
				s.scanExpr(fi, calls, st, cur)
			}
		}
	}
}

// removeHeld pops the most recent acquisition of class.
func removeHeld(held []heldLock, class string) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].Class == class {
			out := make([]heldLock, 0, len(held)-1)
			out = append(out, held[:i]...)
			out = append(out, held[i+1:]...)
			return out
		}
	}
	return held
}

// scanHeader records calls/blocking ops in the non-body parts of a
// compound statement (if/for conditions, switch tags, select comms).
func (s *heldScan) scanHeader(fi *FuncInfo, calls map[*ast.CallExpr]*CallSite, st ast.Stmt, held []heldLock) {
	header := st
	switch x := st.(type) {
	case *ast.IfStmt:
		s.scanNode(fi, calls, x.Cond, held)
		if x.Init != nil {
			s.scanNode(fi, calls, x.Init, held)
		}
		return
	case *ast.ForStmt:
		if x.Cond != nil {
			s.scanNode(fi, calls, x.Cond, held)
		}
		return
	case *ast.RangeStmt:
		s.scanNode(fi, calls, x.X, held)
		if d := directBlock(fi, x); d != "" && len(held) > 0 {
			s.Blocks = append(s.Blocks, heldBlock{Cause: d, Pos: x.Pos(), Held: append([]heldLock(nil), held...)})
		}
		return
	case *ast.SelectStmt:
		if d := directBlock(fi, x); d != "" && len(held) > 0 {
			s.Blocks = append(s.Blocks, heldBlock{Cause: d, Pos: x.Pos(), Held: append([]heldLock(nil), held...)})
		}
		return
	case *ast.SwitchStmt:
		if x.Tag != nil {
			s.scanNode(fi, calls, x.Tag, held)
		}
		return
	}
	_ = header
}

// scanExpr records the calls and blocking operations inside a simple
// statement against the current held stack.
func (s *heldScan) scanExpr(fi *FuncInfo, calls map[*ast.CallExpr]*CallSite, n ast.Node, held []heldLock) {
	s.scanNode(fi, calls, n, held)
}

func (s *heldScan) scanNode(fi *FuncInfo, calls map[*ast.CallExpr]*CallSite, n ast.Node, held []heldLock) {
	ast.Inspect(n, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok && lit != fi.Lit {
			return false // nested literal: its own node's business
		}
		switch v := x.(type) {
		case *ast.CallExpr:
			if cs := calls[v]; cs != nil && len(held) > 0 {
				s.Calls = append(s.Calls, heldCall{Site: cs, Held: append([]heldLock(nil), held...)})
			}
			// External blocking calls (http, fsync) are caught through the
			// summary of the call site by the rule; direct externals have
			// no CallSite only when unresolved — handle via directBlock
			// equivalents below.
		}
		if d := directBlock(fi, x); d != "" && len(held) > 0 {
			s.Blocks = append(s.Blocks, heldBlock{Cause: d, Pos: x.Pos(), Held: append([]heldLock(nil), held...)})
		}
		return true
	})
}

// --- summary computation (fixed point) ---

func (m *Module) computeSummaries() {
	// Direct facts first, in deterministic order.
	for _, key := range m.Order {
		fi := m.Funcs[key]
		sum := &fi.summary
		sum.Acquires = make(map[string]bool)
		sum.HasCtx = fi.CtxParamIndex() >= 0
		if !sum.HasCtx {
			for p := fi.Parent; p != nil; p = p.Parent {
				if p.CtxParamIndex() >= 0 {
					sum.HasCtx = true
					break
				}
			}
		}
		walkOwn(fi, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if recv, verb, ok := mutexMethod(fi.Pkg, call); ok && (verb == "Lock" || verb == "RLock") {
					if class, _ := lockClass(fi, recv); !isLocalLockClass(class) {
						sum.Acquires[class] = true
					}
				}
			}
			if !sum.Blocks {
				if d := directBlock(fi, n); d != "" {
					sum.Blocks = true
					sum.BlockCause = d
				}
			}
			return true
		})
		// External blocking callees count as direct causes.
		if !sum.Blocks {
			for _, cs := range fi.Calls {
				if cs.External != nil && !cs.Go && !cs.Defer {
					if cause := blockingExternal(cs.External); cause != "" {
						sum.Blocks = true
						sum.BlockCause = cause
						break
					}
				}
			}
		}
	}
	// Transitive closure: iterate to a fixed point. The lattice is finite
	// (set of lock classes, one bool) and the transfer is monotone, so
	// this terminates; the sorted sweep order makes cause strings
	// deterministic.
	for changed := true; changed; {
		changed = false
		for _, key := range m.Order {
			fi := m.Funcs[key]
			sum := &fi.summary
			for _, cs := range fi.Calls {
				if cs.Go {
					continue // runs on another goroutine's stack
				}
				for _, callee := range cs.Callees {
					cSum := &callee.summary
					for class := range cSum.Acquires {
						if !sum.Acquires[class] {
							sum.Acquires[class] = true
							changed = true
						}
					}
					if cSum.Blocks && !sum.Blocks && !cs.Defer {
						sum.Blocks = true
						sum.BlockCause = cSum.BlockCause + " (via " + callee.Name + ")"
						changed = true
					}
				}
			}
		}
	}
	// Ctx reachability: propagate downward from ctx-bearing functions.
	for changed := true; changed; {
		changed = false
		for _, key := range m.Order {
			fi := m.Funcs[key]
			if !fi.summary.HasCtx && !fi.summary.CtxDown {
				continue
			}
			for _, cs := range fi.Calls {
				for _, callee := range cs.Callees {
					if callee.summary.HasCtx || callee.summary.CtxDown {
						continue
					}
					callee.summary.CtxDown = true
					callee.summary.CtxWitness = fi.Name
					changed = true
				}
			}
		}
	}
}

func isLocalLockClass(class string) bool {
	return len(class) > 6 && class[:6] == "local:"
}

// Summary returns fi's computed summary (read-only after BuildModule).
func (f *FuncInfo) Summary() *Summary { return &f.summary }

// sortedClasses renders a held stack deterministically.
func heldDisplays(held []heldLock) []string {
	out := make([]string, len(held))
	for i, h := range held {
		out[i] = h.Display
	}
	return out
}

var _ = sort.Strings // keep sort imported for rule files sharing this package
