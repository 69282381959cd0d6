// Command rocklint runs the repository's custom static analyzers
// (internal/lint) over the module and exits nonzero on findings. It
// enforces the invariants Rockhopper's correctness guarantees depend on:
// injected clocks (wallclock), injected splittable RNGs (globalrand), no
// map-iteration-order leaks (maporder), lock hygiene (lockdiscipline), and
// context-first I/O signatures (ctxfirst).
//
// Usage:
//
//	rocklint [-tests=false] [-suppressed] [-list] [-json] [packages]
//
// packages default to ./... — patterns are module-relative directories,
// with /... for subtrees. Every module package is loaded and feeds the call
// graph the interprocedural rules read; patterns select only whose
// findings are reported, so a package's findings are the same whether it
// is named alone or as part of ./..., and the package count printed is the
// number loaded. -json emits a machine-readable report instead of the
// line-per-finding text form. Deliberate exceptions are annotated in
// source:
//
//	//rocklint:allow <rule>[,<rule>] -- <reason>
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/rockhopper-db/rockhopper/internal/lint"
)

func main() {
	tests := flag.Bool("tests", true, "analyze _test.go files (rules that opt in)")
	suppressed := flag.Bool("suppressed", false, "also print suppressed findings with their reasons")
	list := flag.Bool("list", false, "list the registered rules and exit")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	flag.Parse()

	rules := lint.DefaultRules()
	if *list {
		for _, r := range rules {
			fmt.Printf("%-15s %s\n", r.Name(), r.Doc())
		}
		return
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocklint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocklint:", err)
		os.Exit(2)
	}
	fixtures, err := loadTestdata(loader, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocklint:", err)
		os.Exit(2)
	}

	cfg := lint.DefaultConfig()
	cfg.IncludeTests = *tests
	diags := lint.Run(pkgs, rules, cfg, flag.Args()...)
	if len(fixtures) > 0 {
		// Testdata packages are not module packages: they get a call graph
		// of their own.
		diags = append(diags, lint.Run(fixtures, rules, cfg)...)
	}
	pkgs = append(pkgs, fixtures...)
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "rocklint: warning: %s: incomplete type info: %v\n", p.Path, terr)
		}
	}

	if *jsonOut {
		os.Exit(reportJSON(pkgs, rules, diags))
	}
	findings := 0
	for _, d := range diags {
		if d.Suppressed {
			if *suppressed {
				fmt.Printf("%s (suppressed: %s)\n", rel(d), d.SuppressReason)
			}
			continue
		}
		findings++
		fmt.Println(rel(d))
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "rocklint: %d finding(s) in %d package(s)\n", findings, len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "rocklint: ok (%d packages, %d rules)\n", len(pkgs), len(rules))
}

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	Rule   string `json:"rule"`
	File   string `json:"file"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Msg    string `json:"msg"`
	Reason string `json:"reason,omitempty"`
}

// jsonReport is the -json document: counts up front for job summaries,
// findings and waived (suppressed) diagnostics as separate lists.
type jsonReport struct {
	Packages int        `json:"packages"`
	Rules    []string   `json:"rules"`
	Findings []jsonDiag `json:"findings"`
	Waived   []jsonDiag `json:"waived"`
}

// reportJSON renders the run as JSON and returns the process exit code.
func reportJSON(pkgs []*lint.Package, rules []lint.Rule, diags []lint.Diagnostic) int {
	rep := jsonReport{Packages: len(pkgs), Findings: []jsonDiag{}, Waived: []jsonDiag{}}
	for _, r := range rules {
		rep.Rules = append(rep.Rules, r.Name())
	}
	wd, _ := os.Getwd()
	for _, d := range diags {
		file := d.Pos.Filename
		if wd != "" {
			if r, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(r, "..") {
				file = r
			}
		}
		jd := jsonDiag{Rule: d.Rule, File: file, Line: d.Pos.Line, Col: d.Pos.Column, Msg: d.Msg}
		if d.Suppressed {
			jd.Reason = d.SuppressReason
			rep.Waived = append(rep.Waived, jd)
		} else {
			rep.Findings = append(rep.Findings, jd)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "rocklint:", err)
		return 2
	}
	if len(rep.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "rocklint: %d finding(s) in %d package(s)\n", len(rep.Findings), len(pkgs))
		return 1
	}
	fmt.Fprintf(os.Stderr, "rocklint: ok (%d packages, %d rules)\n", len(pkgs), len(rules))
	return 0
}

// rel renders a diagnostic with a working-directory-relative path.
func rel(d lint.Diagnostic) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			d.Pos.Filename = r
		}
	}
	return d.String()
}

// loadTestdata loads packages for patterns that point into a testdata
// tree. LoadAll deliberately skips testdata directories (fixtures are not
// module packages), so naming one on the command line is an explicit
// request — that is how CI proves rocklint exits nonzero on the seeded
// golden fixtures under internal/lint/testdata.
//
// A `<pkg>/testdata/src` tree is loaded as its own miniature module with
// import path "fixture" (the same convention the golden tests use), so
// fixtures may import each other — `fixture/telemetry` — and still
// type-check fully.
func loadTestdata(loader *lint.Loader, patterns []string) ([]*lint.Package, error) {
	var out []*lint.Package
	loaders := map[string]*lint.Loader{loader.ModuleRoot: loader}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if !strings.Contains(pat, "testdata") {
			continue
		}
		ld := loader
		if i := strings.Index(pat, "testdata/src"); i >= 0 {
			fixRoot := filepath.Join(loader.ModuleRoot, filepath.FromSlash(pat[:i+len("testdata/src")]))
			if loaders[fixRoot] == nil {
				loaders[fixRoot] = lint.NewLoaderAt(fixRoot, "fixture")
			}
			ld = loaders[fixRoot]
		}
		root := filepath.Join(loader.ModuleRoot, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))
		if !strings.HasSuffix(pat, "/...") {
			got, err := ld.LoadDir(root)
			if err != nil {
				return nil, err
			}
			out = append(out, got...)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			got, err := ld.LoadDir(path)
			if err != nil {
				return err
			}
			out = append(out, got...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
