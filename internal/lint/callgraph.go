package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds rocklint's module-wide call graph: the substrate the
// interprocedural rules (deadlockcycle, ctxflow, metriccardinality) stand
// on. PR 3's rules were per-function AST walks; the admission races PR 7
// fixed were exactly the cross-function kind those walks cannot see
// (enqueue vs Close across helpers, check-then-act split over two methods).
// The call graph plus the per-function summaries in summary.go let a rule
// reason about what a callee does — locks it takes, operations it blocks
// on, contexts it needs — without re-walking its body at every call site.
//
// Identity. Functions are keyed by types.Func.FullName() rather than by
// object pointer: the loader type-checks every analysis unit independently
// (and re-checks imported module packages through its own importer), so the
// same declared function is represented by distinct types.Func objects in
// different units. FullName ("(*path/to/pkg.T).M") is stable across all of
// them. Function literals get synthetic file:line:col keys — they are real
// nodes (their bodies are analyzed), but only direct invocations
// (go/defer/immediate call) produce edges into them.
//
// Resolution. Static calls and concrete method calls resolve through
// types.Info. A call through an interface method resolves to every module
// type that implements the interface and declares a body for the method,
// capped at maxInterfaceImpls — past the cap (or for func values, external
// callees, and literals that escape) the call site is marked unresolved
// and the summaries treat it as a no-op. That is the deliberate soundness
// trade: unresolved callees produce silence, never noise; DESIGN.md §11
// documents the limit.

// maxInterfaceImpls bounds interface-call fan-out: an interface with more
// module implementations than this resolves to nothing (unresolved call).
const maxInterfaceImpls = 12

// FuncInfo is one node of the module call graph: a declared function,
// method, or function literal with a body in a non-test file.
type FuncInfo struct {
	// Key is the canonical identity: types.Func.FullName() for declared
	// functions, "λ <file>:<line>:<col>" for literals.
	Key string
	// Name is the display name used in diagnostics ("(*Server).observe",
	// "func literal").
	Name string
	// Pkg is the analysis unit the body lives in.
	Pkg *Package
	// Body is the function body.
	Body *ast.BlockStmt
	// Decl is the *ast.FuncDecl, nil for literals.
	Decl *ast.FuncDecl
	// Lit is the *ast.FuncLit, nil for declared functions.
	Lit *ast.FuncLit
	// Parent is the lexically enclosing function for literals (nil for
	// declared functions). A literal closes over its parent's scope, so
	// context availability flows down this link.
	Parent *FuncInfo
	// Sig is the checked signature (nil when type information failed).
	Sig *types.Signature
	// Exported reports whether the function's name is exported. An
	// unexported function or method is only callable from its own package
	// (or through interfaces/func values, which resolve separately), so
	// interprocedural obligations on its parameters can be discharged by
	// inspecting its module callers; an Exported function's cannot.
	Exported bool
	// Calls are the resolved call sites in body order.
	Calls []*CallSite
	// Callers are the call sites that resolve to this function.
	Callers []*CallSite

	summary Summary
}

// Pos returns the function's position (declaration name or literal start).
func (f *FuncInfo) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Name.Pos()
	}
	return f.Lit.Pos()
}

// CtxParamIndex returns the flattened index of the first context.Context
// parameter, or -1.
func (f *FuncInfo) CtxParamIndex() int {
	if f.Sig == nil {
		return -1
	}
	for i := 0; i < f.Sig.Params().Len(); i++ {
		if isContextParam(f.Sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// isContextParam reports whether t is context.Context.
func isContextParam(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// CallSite is one call expression inside a function, with the callees it
// resolves to.
type CallSite struct {
	// Caller owns the call site.
	Caller *FuncInfo
	// Call is the expression.
	Call *ast.CallExpr
	// Callees are the module functions the call may reach: one for a
	// static or concrete-method call, several for an interface call, the
	// literal itself for a direct literal invocation. Empty when
	// unresolved.
	Callees []*FuncInfo
	// External is the checked callee for calls that leave the module
	// (stdlib, blessed externals); nil when the callee is in-module or
	// unresolvable.
	External *types.Func
	// Interface is true when the callees were found by interface-
	// implementation search rather than direct resolution.
	Interface bool
	// Go marks `go f(...)`: the callee runs on another goroutine, so its
	// blocking and lock acquisitions do not happen on the caller's stack.
	Go bool
	// Defer marks `defer f(...)`: the callee runs at return, after the
	// function's own statements, so it does not block the body.
	Defer bool
}

// Module is the whole-program analysis context: every non-test function of
// every loaded package, with calls resolved and summaries computed to a
// fixed point. Interprocedural rules receive it via Pass.Module.
type Module struct {
	// Pkgs are the packages the module was built from.
	Pkgs []*Package
	// Funcs maps Key → node.
	Funcs map[string]*FuncInfo
	// Order holds the keys sorted, for deterministic iteration.
	Order []string

	implCache map[string][]*FuncInfo
	memo      map[string]any
}

// Memo computes fn at most once per module under the given key and returns
// the cached value thereafter — module rules run once per package, but
// their whole-module analysis must run once per module.
func (m *Module) Memo(key string, fn func() any) any {
	v, ok := m.memo[key]
	if !ok {
		v = fn()
		m.memo[key] = v
	}
	return v
}

// ModuleRule marks rules that need the whole-module call graph. Run builds
// the Module lazily, only when at least one registered rule asks for it.
type ModuleRule interface {
	Rule
	// NeedsModule is a marker; implementations are empty.
	NeedsModule()
}

// BuildModule constructs the call graph and summaries over the non-test
// files of pkgs. External test packages ("[xtest]" units) contribute
// nothing: their NonTestFiles are empty by construction.
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		Funcs:     make(map[string]*FuncInfo),
		Pkgs:      pkgs,
		implCache: make(map[string][]*FuncInfo),
		memo:      make(map[string]any),
	}
	// Pass 1: register every function and literal.
	for _, pkg := range pkgs {
		for _, f := range pkg.NonTestFiles() {
			m.registerFile(pkg, f)
		}
	}
	m.Order = make([]string, 0, len(m.Funcs))
	for k := range m.Funcs {
		m.Order = append(m.Order, k)
	}
	sort.Strings(m.Order)
	// Pass 2: resolve call sites.
	for _, k := range m.Order {
		m.resolveCalls(m.Funcs[k])
	}
	// Pass 3: summaries to a fixed point (summary.go).
	m.computeSummaries()
	return m
}

// registerFile creates nodes for the declared functions and the literals
// nested in them, wiring Parent links.
func (m *Module) registerFile(pkg *Package, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue // type checking failed for this declaration
		}
		fi := &FuncInfo{
			Key:      obj.FullName(),
			Name:     displayName(obj),
			Pkg:      pkg,
			Body:     fd.Body,
			Decl:     fd,
			Sig:      obj.Type().(*types.Signature),
			Exported: isExportedFunc(obj, fd),
		}
		if prev, dup := m.Funcs[fi.Key]; dup {
			// Two units declaring the same FullName (should not happen for
			// non-test files); keep the first deterministically.
			_ = prev
			continue
		}
		m.Funcs[fi.Key] = fi
		m.registerLits(pkg, fi, fd.Body)
	}
}

// registerLits walks body creating nodes for directly nested function
// literals (recursively), without descending past literal boundaries twice.
func (m *Module) registerLits(pkg *Package, parent *FuncInfo, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		pos := pkg.Fset.Position(lit.Pos())
		fi := &FuncInfo{
			Key:    fmt.Sprintf("λ %s:%d:%d", pos.Filename, pos.Line, pos.Column),
			Name:   "func literal",
			Pkg:    pkg,
			Body:   lit.Body,
			Lit:    lit,
			Parent: parent,
		}
		if sig, ok := pkg.Info.TypeOf(lit).(*types.Signature); ok {
			fi.Sig = sig
		}
		m.Funcs[fi.Key] = fi
		m.registerLits(pkg, fi, lit.Body)
		return false // registerLits recursed; don't double-visit
	})
	return
}

// displayName renders a types.Func compactly: "pkg.F" or "(*pkg.T).M" with
// only the last path element of the package.
func displayName(obj *types.Func) string {
	full := obj.FullName()
	if obj.Pkg() != nil {
		long := obj.Pkg().Path()
		short := long
		if i := strings.LastIndex(long, "/"); i >= 0 {
			short = long[i+1:]
		}
		full = strings.ReplaceAll(full, long+".", short+".")
	}
	return full
}

// isExportedFunc reports whether obj is callable from outside its package:
// Go visibility is purely name-based, for methods as much as for
// package-level functions ((*Client).do cannot be invoked from another
// package no matter how exported Client is).
func isExportedFunc(obj *types.Func, decl *ast.FuncDecl) bool {
	return obj.Exported()
}

// funcBodyOwned reports whether n is inside fn's body but not inside a
// nested literal (whose statements belong to the literal's own node).
// Implemented as a walk helper below instead; see walkOwn.

// walkOwn visits the nodes of fi's body that belong to fi itself, stopping
// at nested function literals.
func walkOwn(fi *FuncInfo, visit func(ast.Node) bool) {
	ast.Inspect(fi.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit != fi.Lit {
			return false
		}
		return visit(n)
	})
}

// resolveCalls populates fi.Calls (and the callees' Callers).
func (m *Module) resolveCalls(fi *FuncInfo) {
	goCalls := make(map[*ast.CallExpr]bool)
	deferCalls := make(map[*ast.CallExpr]bool)
	walkOwn(fi, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			goCalls[v.Call] = true
		case *ast.DeferStmt:
			deferCalls[v.Call] = true
		}
		return true
	})
	walkOwn(fi, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cs := m.resolveCall(fi, call)
		if cs != nil {
			cs.Go = goCalls[call]
			cs.Defer = deferCalls[call]
			fi.Calls = append(fi.Calls, cs)
			for _, callee := range cs.Callees {
				callee.Callers = append(callee.Callers, cs)
			}
		}
		return true
	})
}

// resolveCall classifies one call expression. Conversions and builtin calls
// return nil.
func (m *Module) resolveCall(fi *FuncInfo, call *ast.CallExpr) *CallSite {
	pkg := fi.Pkg
	// Direct literal invocation: func(){...}() — edge into the literal.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		pos := pkg.Fset.Position(lit.Pos())
		key := fmt.Sprintf("λ %s:%d:%d", pos.Filename, pos.Line, pos.Column)
		if target := m.Funcs[key]; target != nil {
			return &CallSite{Caller: fi, Call: call, Callees: []*FuncInfo{target}}
		}
		return &CallSite{Caller: fi, Call: call}
	}
	fn := calleeOf(pkg, call)
	if fn == nil {
		// Conversion, builtin, or func-value call: unresolved.
		if isConversionOrBuiltin(pkg, call) {
			return nil
		}
		return &CallSite{Caller: fi, Call: call}
	}
	// Interface method: resolve to module implementations.
	if recvIsInterface(fn) {
		impls := m.implementations(fn)
		return &CallSite{Caller: fi, Call: call, Callees: impls, Interface: true}
	}
	if target := m.Funcs[fn.FullName()]; target != nil {
		return &CallSite{Caller: fi, Call: call, Callees: []*FuncInfo{target}}
	}
	// External (stdlib or generated): keep the object so summaries can
	// pattern-match known blocking entry points.
	return &CallSite{Caller: fi, Call: call, External: fn}
}

// calleeOf resolves the called *types.Func for method and function calls.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if s := pkg.Info.Selections[fun]; s != nil {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isConversionOrBuiltin distinguishes T(x) and len/cap/append/... from
// unresolvable func-value calls.
func isConversionOrBuiltin(pkg *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch pkg.Info.Uses[fun].(type) {
		case *types.TypeName, *types.Builtin:
			return true
		}
	case *ast.SelectorExpr:
		if _, ok := pkg.Info.Uses[fun.Sel].(*types.TypeName); ok {
			return true
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.StructType, *ast.InterfaceType, *ast.StarExpr, *ast.IndexExpr, *ast.IndexListExpr:
		return true
	}
	return false
}

// recvIsInterface reports whether fn is declared on an interface.
func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ok = sig.Recv().Type().Underlying().(*types.Interface)
	return ok
}

// implementations returns the module methods an interface-method call may
// dispatch to: for interface method I.M, the M declared (with a body, in a
// non-test file) on every module named type whose method set satisfies I.
// Results are deterministic (sorted by key) and cached per interface
// method; a fan-out past maxInterfaceImpls resolves to nothing.
func (m *Module) implementations(ifaceMethod *types.Func) []*FuncInfo {
	cacheKey := ifaceMethod.FullName()
	impls, ok := m.implCache[cacheKey]
	if ok {
		return impls
	}
	sig := ifaceMethod.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	name := ifaceMethod.Name()
	impls = nil
	seen := make(map[string]bool)
	for _, key := range m.Order {
		fi := m.Funcs[key]
		if fi.Decl == nil || fi.Decl.Recv == nil || fi.Decl.Name.Name != name {
			continue
		}
		recv := fi.Sig.Recv()
		if recv == nil {
			continue
		}
		rt := recv.Type()
		// The method is reachable through the interface if its receiver's
		// base type (value or pointer form) implements it. Each unit checks
		// against its own view of the interface; identical declarations
		// from different units structurally match through types.Implements.
		base := rt
		if p, ok := rt.(*types.Pointer); ok {
			base = p.Elem()
		}
		if types.Implements(base, iface) || types.Implements(types.NewPointer(base), iface) {
			if !seen[fi.Key] {
				seen[fi.Key] = true
				impls = append(impls, fi)
			}
		}
	}
	if len(impls) > maxInterfaceImpls {
		impls = nil // bounded treatment: too wide to reason about
	}
	m.implCache[cacheKey] = impls
	return impls
}
