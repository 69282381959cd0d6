// Package lint is rocklint: a stdlib-only static-analysis engine enforcing
// the determinism and concurrency invariants Rockhopper's correctness
// guarantees rest on. PR 1 proved byte-identical experiment output for any
// worker count and PR 2 proved identical convergence under injected faults;
// both proofs silently die the moment someone reintroduces a raw
// time.Now(), package-level math/rand, a map-iteration-order leak, or a
// lock held across an early return. rocklint is the ratchet that keeps
// those regressions out of the tree.
//
// The engine loads packages with go/parser + go/types (source importer, no
// external dependencies — the module stays zero-dep), runs each registered
// Rule over every package, and reports diagnostics as file:line:col. A
// finding can be waived two ways:
//
//   - a line-scoped directive, placed on the offending line or alone on
//     the line directly above it:
//
//     //rocklint:allow <rule>[,<rule>...] -- <reason>
//
//     The reason is mandatory; a directive without one is itself reported.
//     Directives that suppress nothing are reported as unused, so stale
//     waivers cannot accumulate.
//
//   - a package allowlist in Config.Allow, for packages whose whole job is
//     the exception (internal/resilience owns the wall clock, so banning
//     time.Now there would outlaw the one legitimate call site).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding at one position.
type Diagnostic struct {
	// Rule is the reporting rule's name ("wallclock", ...); the meta rule
	// name "rocklint" marks engine findings (malformed or unused
	// directives), which cannot be suppressed.
	Rule string
	// Pos locates the finding.
	Pos token.Position
	// Msg explains it.
	Msg string
	// Suppressed is true when a //rocklint:allow directive waived the
	// finding; SuppressReason carries the directive's justification.
	Suppressed     bool
	SuppressReason string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Rule, d.Msg)
}

// Rule is one analyzer. Rules are stateless with respect to a run: Check is
// called once per package with a fresh Pass.
type Rule interface {
	// Name is the identifier used in directives and output.
	Name() string
	// Doc is a one-line description for -list output and DESIGN.md.
	Doc() string
	// IncludeTests reports whether the rule also applies to _test.go
	// files. Determinism rules skip tests (harness mechanics legitimately
	// sleep and time things); safety rules include them.
	IncludeTests() bool
	// Check analyzes one package and reports through pass.Reportf.
	Check(pass *Pass)
}

// Pass is the per-(rule, package) analysis context handed to Rule.Check.
type Pass struct {
	// Fset resolves positions for every file in the package.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// Files are the files the rule should inspect — test files are
	// already filtered out for rules that exclude them.
	Files []*ast.File
	// Module is the whole-program call graph with computed summaries. It is
	// non-nil only when at least one registered rule is a ModuleRule; such
	// rules run their module-wide analysis once (via Module.Memo) and
	// report the findings that land in Pkg.
	Module *Module

	rule    string
	reportf func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportf(Diagnostic{
		Rule: p.rule,
		Pos:  p.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// PkgQualifier resolves e as a package-qualified selector (alias- and
// shadowing-aware via the type checker's Uses map) and returns the imported
// package path and the selected name.
func (p *Pass) PkgQualifier(e ast.Expr) (pkgPath, name string, ok bool) {
	sel, okSel := e.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := p.Pkg.Info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// TypeOf returns the checked type of e, or nil when type information is
// incomplete.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Config parameterizes a run.
type Config struct {
	// IncludeTests gates analysis of _test.go files globally; a rule's own
	// IncludeTests must also be true for tests to be inspected.
	IncludeTests bool
	// Allow maps a rule name to module-relative package paths the rule
	// skips entirely. An entry is either an exact path ("internal/stats")
	// or a prefix wildcard ("internal/resilience/...").
	Allow map[string][]string
}

// DefaultConfig is the repository's blessed exception set.
func DefaultConfig() Config {
	return Config{
		IncludeTests: true,
		Allow: map[string][]string{
			// internal/resilience owns the Clock abstraction: RealClock
			// must read the wall clock, and the package's tests exercise
			// real timers. Everyone else injects a Clock.
			"wallclock": {"internal/resilience"},
		},
	}
}

// allowed reports whether rule is exempt in the package at relPath.
func (c Config) allowed(rule, relPath string) bool {
	return matchAny(c.Allow[rule], relPath)
}

// matchAny reports whether relPath matches one of patterns. A pattern is a
// module-relative directory ("internal/stats"), a subtree
// ("internal/resilience/..."), or "..." for everything; a leading "./" is
// ignored.
func matchAny(patterns []string, relPath string) bool {
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "..." || pat == "" {
			return true
		}
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

// Run executes every rule over the packages of pkgs whose RelPath matches
// one of patterns (every package when no pattern is given), applies
// suppression directives and allowlists, and returns their diagnostics
// (suppressed ones included, flagged) sorted by position. Engine findings —
// malformed and unused directives — are appended under the rule name
// "rocklint".
//
// Patterns select only what is reported. The call graph the
// interprocedural rules read is always built from all of pkgs, so a
// package's findings do not depend on which other packages were selected.
func Run(pkgs []*Package, rules []Rule, cfg Config, patterns ...string) []Diagnostic {
	var selected []*Package
	for _, pkg := range pkgs {
		if len(patterns) == 0 || matchAny(patterns, pkg.RelPath) {
			selected = append(selected, pkg)
		}
	}
	if len(selected) == 0 {
		return nil
	}
	var mod *Module
	for _, rule := range rules {
		if _, ok := rule.(ModuleRule); ok {
			mod = BuildModule(pkgs)
			break
		}
	}
	var out []Diagnostic
	for _, pkg := range selected {
		out = append(out, checkPackage(pkg, rules, cfg, mod)...)
	}
	sortDiagnostics(out)
	return out
}

// checkPackage runs every rule over one package and applies its
// suppression directives.
func checkPackage(pkg *Package, rules []Rule, cfg Config, mod *Module) []Diagnostic {
	dirs, malformed := collectDirectives(pkg)
	out := malformed

	executed := make(map[string]bool)
	var raw []Diagnostic
	for _, rule := range rules {
		if cfg.allowed(rule.Name(), pkg.RelPath) {
			continue
		}
		executed[rule.Name()] = true
		files := pkg.Files
		if !cfg.IncludeTests || !rule.IncludeTests() {
			files = pkg.NonTestFiles()
		}
		pass := &Pass{
			Fset:    pkg.Fset,
			Pkg:     pkg,
			Files:   files,
			Module:  mod,
			rule:    rule.Name(),
			reportf: func(d Diagnostic) { raw = append(raw, d) },
		}
		rule.Check(pass)
	}

	for i := range raw {
		if dir := dirs.match(raw[i].Rule, raw[i].Pos); dir != nil {
			raw[i].Suppressed = true
			raw[i].SuppressReason = dir.Reason
			dir.used = true
		}
	}
	out = append(out, raw...)
	out = append(out, dirs.unused(executed)...)
	return out
}

// sortDiagnostics orders diagnostics by file, line, column, then rule.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
}
