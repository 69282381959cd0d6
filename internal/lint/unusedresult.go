package lint

import (
	"go/ast"
	"go/types"
)

// UnusedResult flags statement-position calls to functions whose error
// result must not be dropped. The durability contract makes this a
// correctness rule, not a style rule: DurableStore.Commit returns nil only
// after the WAL record is on disk, so a caller that discards the error has
// acknowledged a mutation that may not survive a crash. The watch list is
// resolved through go/types (types.Func.FullName), so aliases, embedding,
// and interface dispatch are all seen through — a dropped
// ObjectStore.Commit is a finding even though the concrete store is only
// known at runtime. An explicit `_ =` discard is a conscious decision and
// is not flagged.
type UnusedResult struct {
	// Funcs are the watched callees as types.Func.FullName strings, e.g.
	// "(*path/to/store.Store).Commit" for a pointer method,
	// "(path/to/backend.ObjectStore).Commit" for an interface method, and
	// "path/to/client.FinishApp" for a package-level function.
	Funcs []string
}

// Name implements Rule.
func (UnusedResult) Name() string { return "unusedresult" }

// Doc implements Rule.
func (UnusedResult) Doc() string {
	return "errors from durability- and session-critical calls must be handled, not dropped"
}

// IncludeTests implements Rule. Tests drop these errors as easily as
// production code, and a test that ignores a failed Put asserts nothing.
func (UnusedResult) IncludeTests() bool { return true }

// Check implements Rule.
func (r UnusedResult) Check(pass *Pass) {
	watched := make(map[string]bool, len(r.Funcs))
	for _, name := range r.Funcs {
		watched[name] = true
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			// Statement-position calls drop their results in all three
			// shapes: plain expression statements, and defer/go statements,
			// whose call results are discarded by the language itself.
			var call *ast.CallExpr
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				call, _ = stmt.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = stmt.Call
			case *ast.GoStmt:
				call = stmt.Call
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || !watched[fn.FullName()] {
				return true
			}
			pass.Reportf(call.Pos(), "result of %s is dropped; handle the error or discard it explicitly with _ =", fn.FullName())
			return true
		})
	}
}

// calleeFunc resolves the called function object, for both method calls
// (concrete or via interface) and plain function calls.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if s := pass.Pkg.Info.Selections[fun]; s != nil {
			if fn, ok := s.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := pass.Pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.Pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
