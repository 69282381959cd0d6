package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// These tests keep the blessed-exception surface honest: an allowlist
// entry pointing at a package that no longer exists, or a committed
// //rocklint:allow directive that no longer suppresses anything, is dead
// configuration that silently widens what the linter ignores. Both fail
// the build here instead of rotting.

// TestDefaultRulesComplete pins the rule count so adding or removing an
// analyzer forces the DESIGN.md §6 table, the README list, and the CI
// fixture matrix to be revisited.
func TestDefaultRulesComplete(t *testing.T) {
	rules := DefaultRules()
	if len(rules) != 11 {
		t.Fatalf("DefaultRules() has %d rules, want 11 — update DESIGN.md §6/§11, README, and the CI fixture matrix alongside this number", len(rules))
	}
	seen := make(map[string]bool)
	for _, r := range rules {
		if r.Name() == "" || r.Doc() == "" {
			t.Errorf("rule %T needs a non-empty Name and Doc", r)
		}
		if seen[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
	}
}

// TestDefaultConfigAllowPathsExist asserts every DefaultConfig allowlist
// entry names a real module package directory with Go files in it.
func TestDefaultConfigAllowPathsExist(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod: %v", root, err)
	}
	for rule, paths := range DefaultConfig().Allow {
		for _, pat := range paths {
			rel := strings.TrimSuffix(pat, "/...")
			dir := filepath.Join(root, filepath.FromSlash(rel))
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Errorf("allowlist %q: %s does not name a module directory: %v", rule, pat, err)
				continue
			}
			hasGo := false
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					hasGo = true
					break
				}
			}
			if !hasGo {
				t.Errorf("allowlist %q: %s contains no Go files — stale entry", rule, pat)
			}
		}
	}
}

// loadModule loads and type-checks the real module once per test binary;
// the tests that need the whole tree share it.
var loadModule = sync.OnceValues(func() ([]*Package, error) {
	loader, err := NewLoader(".")
	if err != nil {
		return nil, err
	}
	return loader.LoadAll()
})

// modulePackages returns the shared whole-module load, failing the test on
// a load error or incomplete type information.
func modulePackages(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped under -short")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("module loader found no packages")
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: incomplete type info: %v", p.Path, p.TypeErrors[0])
		}
	}
	return pkgs
}

// TestModuleCleanAndWaiversLive loads the real module and runs the full
// default rule set: the tree must be finding-free, and — because the
// engine reports directives that suppress nothing as unsuppressable
// "rocklint" findings — every committed waiver must still be doing work.
// This is the in-process twin of CI's `rocklint ./...` gate. maxLiveWaivers
// is a ratchet on the suppressed-finding count: it may only go down, so a
// change that removes waivers lowers the ceiling with them. It counts
// findings, not directive lines: one directive over a line with two
// unbounded labels would waive two findings (today each of the 23
// directives waives one), so it is already exact, and any new directive
// trips it.
func TestModuleCleanAndWaiversLive(t *testing.T) {
	pkgs := modulePackages(t)
	const maxLiveWaivers = 23
	diags := Run(pkgs, DefaultRules(), DefaultConfig())
	waivers := 0
	for _, d := range diags {
		if d.Suppressed {
			waivers++
			continue
		}
		t.Errorf("%s: [%s] %s", d.Pos, d.Rule, d.Msg)
	}
	if t.Failed() {
		t.Fatal("the module must be finding-free: fix the code or add a justified //rocklint:allow waiver (stale waivers surface above as unused-directive findings)")
	}
	if waivers == 0 {
		t.Error("expected at least one live waiver in the tree; if all were removed, drop this assertion deliberately")
	}
	if waivers > maxLiveWaivers {
		t.Errorf("%d live waivers, ceiling is %d: the count may only go down", waivers, maxLiveWaivers)
	}
	t.Logf("module clean: %d packages, %d live waivers", len(pkgs), waivers)
}

// TestRunPatternsReportOnly pins what `rocklint <pattern>` means: a pattern
// selects which packages' findings are reported, never which packages the
// call graph is built from. internal/fleet's deadlockcycle waiver is live
// only through the fsync chain into internal/store, and internal/client's
// metric label is bounded only through a callee in internal/telemetry; a
// graph built from the named package alone would report the first waiver
// as unused and the second label as unbounded.
func TestRunPatternsReportOnly(t *testing.T) {
	pkgs := modulePackages(t)
	all := Run(pkgs, DefaultRules(), DefaultConfig())
	for _, tc := range []struct{ name, pat string }{
		{"fleet", "./internal/fleet"},
		{"client", "internal/client/..."},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirs := make(map[string]bool)
			for _, p := range pkgs {
				if matchAny([]string{tc.pat}, p.RelPath) {
					dirs[p.Dir] = true
				}
			}
			var want []Diagnostic
			for _, d := range all {
				if dirs[filepath.Dir(d.Pos.Filename)] {
					want = append(want, d)
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s: the whole-module run reports nothing there; the comparison would be vacuous", tc.pat)
			}
			got := Run(pkgs, DefaultRules(), DefaultConfig(), tc.pat)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d diagnostics, the whole-module run restricted to it has %d", tc.pat, len(got), len(want))
				for _, d := range got {
					t.Logf("got: %s (suppressed=%v)", d, d.Suppressed)
				}
			}
		})
	}
}
