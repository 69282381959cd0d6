package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// I/O entry points by package for the does-I/O heuristic. Constructors and
// pure helpers (http.NewServeMux, os.Getenv) are deliberately absent.
var (
	httpIOFuncs = map[string]bool{
		"Get": true, "Head": true, "Post": true, "PostForm": true,
		"NewRequest": true, "NewRequestWithContext": true,
		"ListenAndServe": true, "ListenAndServeTLS": true, "Serve": true,
	}
	osIOFuncs = map[string]bool{
		"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
		"WriteFile": true, "Remove": true, "RemoveAll": true, "Mkdir": true,
		"MkdirAll": true, "Rename": true, "Stat": true, "Lstat": true,
	}
	netIOFuncs = map[string]bool{
		"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true,
	}
	// httpIOMethods are methods defined in net/http that perform network
	// I/O when called. Deliberately narrow: registration and accessor
	// methods (HandleFunc, Header) and interface relay methods
	// (ResponseWriter.Write) are not evidence the caller owns an I/O
	// operation that needs a deadline.
	httpIOMethods = map[string]bool{
		"Do": true, "RoundTrip": true, "Serve": true, "ListenAndServe": true,
		"ListenAndServeTLS": true, "Shutdown": true,
	}
)

// CtxFirst enforces context plumbing in the packages that talk to the
// network: every exported function or method that does I/O — calls into
// net/http, net, or os, or threads a context.Context to a callee — must
// take a context.Context as its first parameter, so per-call deadlines and
// cancellation (PR 2's resilience contract: "ctx + per-call deadlines on
// every method") survive refactors. HTTP handlers are exempt: the request
// carries their context.
type CtxFirst struct {
	// Packages are the module-relative package paths the rule applies to
	// (exact, or prefix with "/...").
	Packages []string
}

// Name implements Rule.
func (CtxFirst) Name() string { return "ctxfirst" }

// Doc implements Rule.
func (CtxFirst) Doc() string {
	return "exported I/O functions in client/backend packages take context.Context first"
}

// IncludeTests implements Rule.
func (CtxFirst) IncludeTests() bool { return false }

// Check implements Rule.
func (r CtxFirst) Check(pass *Pass) {
	if !r.applies(pass.Pkg.RelPath) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !fn.Name.IsExported() {
				continue
			}
			checkCtxFirst(pass, fn)
		}
	}
}

func (r CtxFirst) applies(relPath string) bool {
	for _, pat := range r.Packages {
		if prefix, wild := strings.CutSuffix(pat, "/..."); wild {
			if relPath == prefix || strings.HasPrefix(relPath, prefix+"/") {
				return true
			}
		} else if relPath == pat {
			return true
		}
	}
	return false
}

func checkCtxFirst(pass *Pass, fn *ast.FuncDecl) {
	pos := 0
	ctxAt := -1
	handler := false
	for _, field := range fn.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass, field.Type) && ctxAt < 0 {
			ctxAt = pos
		}
		if isHTTPRequestPtr(pass, field.Type) {
			handler = true
		}
		pos += n
	}
	switch {
	case ctxAt == 0:
		return // compliant
	case ctxAt > 0:
		pass.Reportf(fn.Name.Pos(), "%s takes a context.Context at parameter %d; it must be the first parameter", fn.Name.Name, ctxAt)
		return
	case handler:
		return // the *http.Request carries the context
	}
	if doesIO(pass, fn.Body) {
		pass.Reportf(fn.Name.Pos(), "exported %s does I/O but takes no context.Context; accept one as the first parameter so deadlines and cancellation propagate", fn.Name.Name)
	}
}

func isContextType(pass *Pass, e ast.Expr) bool {
	if t := pass.TypeOf(e); t != nil {
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
		}
		return false
	}
	// Type info unavailable: fall back to the syntactic form.
	pkg, name, ok := pass.PkgQualifier(e)
	return ok && pkg == "context" && name == "Context"
}

func isHTTPRequestPtr(pass *Pass, e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	pkg, name, ok := pass.PkgQualifier(star.X)
	return ok && pkg == "net/http" && name == "Request"
}

// doesIO reports whether body performs I/O per the heuristic: a call to a
// known I/O entry point of net/http, os, or net; a method whose definition
// lives in net/http (Do, RoundTrip, ...); or any call passing a
// context.Context value (evidence the callee does deadline-bearing work).
func doesIO(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, name, ok := pass.PkgQualifier(call.Fun); ok {
			switch {
			case pkg == "net/http" && httpIOFuncs[name],
				pkg == "os" && osIOFuncs[name],
				pkg == "net" && netIOFuncs[name]:
				found = true
				return false
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && httpIOMethods[sel.Sel.Name] {
			if s := pass.Pkg.Info.Selections[sel]; s != nil {
				if obj := s.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "net/http" {
					found = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if t := pass.TypeOf(arg); t != nil {
				if named, ok := t.(*types.Named); ok {
					obj := named.Obj()
					if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// DefaultRules is the rule set cmd/rocklint runs: the invariants the
// repository's determinism, resilience, and durability guarantees rest on.
func DefaultRules() []Rule {
	const module = "github.com/rockhopper-db/rockhopper"
	return []Rule{
		WallClock{},
		GlobalRand{},
		MapOrder{},
		LockDiscipline{},
		GoroutineLeak{},
		CtxFirst{Packages: []string{"internal/client", "internal/backend"}},
		DeadlockCycle{},
		CtxFlow{},
		MetricCardinality{BoundedFuncs: []string{
			// tenantLabel caps its output at maxTenantLabelValues distinct
			// tenants plus "other" — the canonical tenant-capped set of
			// DESIGN.md §8.
			"(*" + module + "/internal/backend.Server).tenantLabel",
			// BO.name is only ever assigned the literals "bo"/"cbo" (the
			// field exists so one struct serves both algorithm variants);
			// the checker's field rule cannot see that closed set.
			"(*" + module + "/internal/tuners.BO).Name",
		}},
		// A started span that is never finished silently drops a node from
		// the cross-node causal tree — the fleet drill then fails with an
		// orphaned subtree and no hint of which hop lost it.
		SpanFinish{Starters: []string{
			"(*" + module + "/internal/telemetry.Tracer).Start",
			"(*" + module + "/internal/telemetry.Tracer).StartRoot",
			"(*" + module + "/internal/telemetry.Tracer).StartRemote",
			"(*" + module + "/internal/telemetry.Tracer).Adopt",
		}},
		// The durability contract (a nil return means the WAL record is on
		// disk) and the session upload path both turn a dropped error into
		// silently lost data.
		UnusedResult{Funcs: []string{
			"(*" + module + "/internal/store.Store).Commit",
			"(*" + module + "/internal/store.DurableStore).Commit",
			"(*" + module + "/internal/store.DurableStore).PutBatch",
			"(*" + module + "/internal/store.DurableStore).Delete",
			"(*" + module + "/internal/store.DurableStore).Compact",
			"(" + module + "/internal/backend.ObjectStore).Commit",
			"(*" + module + "/internal/client.Session).Complete",
			module + "/internal/client.FinishApp",
		}},
	}
}
