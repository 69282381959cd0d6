package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The golden tests load the fixture packages under testdata/src — each a
// tiny package seeding deliberate violations — and assert the analyzers'
// findings against `// want "regexp"` comments: every want must be
// matched by a diagnostic on its line, and every unsuppressed diagnostic
// must be claimed by a want. Suppression directives inside the fixtures
// double as the proof that //rocklint:allow works.

var (
	fixOnce sync.Once
	fixPkgs map[string]*Package
	fixErr  error
)

// fixture returns the named testdata/src package; all fixtures are
// loaded and type-checked once per test binary (the source importer's
// stdlib work dominates, so sharing one loader matters).
func fixture(t *testing.T, name string) *Package {
	t.Helper()
	fixOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("testdata", "src"))
		if err != nil {
			fixErr = err
			return
		}
		pkgs, err := NewLoaderAt(root, "fixture").LoadAll()
		if err != nil {
			fixErr = err
			return
		}
		fixPkgs = make(map[string]*Package, len(pkgs))
		for _, p := range pkgs {
			if len(p.TypeErrors) > 0 {
				fixErr = fmt.Errorf("fixture %s has type errors: %v", p.RelPath, p.TypeErrors)
				return
			}
			fixPkgs[p.RelPath] = p
		}
	})
	if fixErr != nil {
		t.Fatalf("loading fixtures: %v", fixErr)
	}
	p, ok := fixPkgs[name]
	if !ok {
		t.Fatalf("no fixture package %q under testdata/src", name)
	}
	return p
}

type wantKey struct {
	file string
	line int
}

var wantArgRe = regexp.MustCompile(`"([^"]*)"`)

// collectWants parses the `// want "re" ["re"...]` comments of a fixture.
func collectWants(t *testing.T, pkg *Package) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[wantKey][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				for _, m := range wantArgRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// checkWants asserts the two-way correspondence between want comments and
// unsuppressed diagnostics.
func checkWants(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		ok := false
		for _, re := range wants[wantKey{d.Pos.Filename, d.Pos.Line}] {
			if re.MatchString(d.Msg) {
				matched[re] = true
				ok = true
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule, d.Msg)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: no diagnostic matched want %q", filepath.Base(k.file), k.line, re.String())
			}
		}
	}
}

// suppressed filters the waived findings out of a run's diagnostics.
func suppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// runFixture analyzes one fixture with one rule, verifies the want
// correspondence, and returns the full diagnostic list.
func runFixture(t *testing.T, name string, rule Rule) []Diagnostic {
	t.Helper()
	pkg := fixture(t, name)
	diags := Run([]*Package{pkg}, []Rule{rule}, Config{IncludeTests: true})
	checkWants(t, pkg, diags)
	return diags
}

func TestWallClockFixture(t *testing.T) {
	diags := runFixture(t, "wallclock", WallClock{})
	sup := suppressed(diags)
	if len(sup) != 2 {
		t.Fatalf("want 2 suppressed wallclock findings (standalone + trailing directive), got %d", len(sup))
	}
	for _, d := range sup {
		if !strings.Contains(d.SuppressReason, "fixture:") {
			t.Errorf("suppressed finding lost its directive reason: %q", d.SuppressReason)
		}
	}
}

func TestGlobalRandFixture(t *testing.T) {
	diags := runFixture(t, "globalrand", GlobalRand{})
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed globalrand finding, got %d", len(sup))
	}
	if want := "legacy trace replay"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
	// The want inside rand_test.go only matches because the rule opts into
	// test files; make the inclusion explicit too.
	found := false
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "rand_test.go") && !d.Suppressed {
			found = true
		}
	}
	if !found {
		t.Error("globalrand must report violations inside _test.go files")
	}
}

func TestMapOrderFixture(t *testing.T) {
	diags := runFixture(t, "maporder", MapOrder{})
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed maporder finding, got %d", len(sup))
	}
	if want := "order genuinely irrelevant"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
}

func TestLockDisciplineFixture(t *testing.T) {
	diags := runFixture(t, "lockdiscipline", LockDiscipline{})
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed lockdiscipline finding, got %d", len(sup))
	}
	if want := "ownership handed to the caller"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
	found := false
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "lock_test.go") && !d.Suppressed {
			found = true
		}
	}
	if !found {
		t.Error("lockdiscipline must report violations inside _test.go files")
	}
}

func TestCtxFirstFixture(t *testing.T) {
	diags := runFixture(t, "ctxfirst", CtxFirst{Packages: []string{"ctxfirst"}})
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed ctxfirst finding, got %d", len(sup))
	}
	if want := "interface-pinned signature"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
}

// TestCtxFirstScoping proves the rule is inert outside its configured
// packages: the same fixture produces nothing when the scope excludes it.
func TestCtxFirstScoping(t *testing.T) {
	pkg := fixture(t, "ctxfirst")
	diags := Run([]*Package{pkg}, []Rule{CtxFirst{Packages: []string{"internal/client"}}}, Config{IncludeTests: true})
	for _, d := range diags {
		if d.Rule == "ctxfirst" {
			t.Errorf("ctxfirst fired outside its configured packages: %s", d)
		}
	}
}

// TestDirectiveFindings covers the engine's own diagnostics: a directive
// missing the mandatory reason and a stale directive with nothing to
// suppress, both reported under MetaRule and unsuppressible.
func TestDirectiveFindings(t *testing.T) {
	diags := runFixture(t, "directives", WallClock{})
	if len(diags) != 2 {
		t.Fatalf("want exactly 2 engine findings, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != MetaRule {
			t.Errorf("engine finding reported under rule %q, want %q", d.Rule, MetaRule)
		}
		if d.Suppressed {
			t.Errorf("engine finding must not be suppressible: %s", d)
		}
	}
}

// TestUnusedDirectiveNeedsExecutedRule: a directive naming a rule that
// never ran (allowlisted) is vacuously unused and must stay silent —
// otherwise allowlisting a package would spray unused-directive noise.
func TestUnusedDirectiveNeedsExecutedRule(t *testing.T) {
	pkg := fixture(t, "directives")
	cfg := Config{Allow: map[string][]string{"wallclock": {"directives"}}}
	diags := Run([]*Package{pkg}, []Rule{WallClock{}}, cfg)
	for _, d := range diags {
		if strings.Contains(d.Msg, "unused") {
			t.Errorf("vacuously-unused directive reported while its rule was allowlisted: %s", d)
		}
	}
	// The malformed directive must still be reported: broken syntax is a
	// defect regardless of which rules run.
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "malformed") {
		t.Errorf("want exactly the malformed-directive finding, got %v", diags)
	}
}

func TestAllowlist(t *testing.T) {
	pkg := fixture(t, "allowed")
	base := Run([]*Package{pkg}, []Rule{WallClock{}}, Config{})
	if len(base) != 1 || base[0].Suppressed {
		t.Fatalf("unallowlisted run: want exactly 1 live finding, got %v", base)
	}
	for _, allow := range []string{"allowed", "allowed/..."} {
		cfg := Config{Allow: map[string][]string{"wallclock": {allow}}}
		if diags := Run([]*Package{pkg}, []Rule{WallClock{}}, cfg); len(diags) != 0 {
			t.Errorf("allowlist %q: want 0 diagnostics, got %v", allow, diags)
		}
	}
	// An allowlist for a different rule must not leak across rule names.
	cfg := Config{Allow: map[string][]string{"globalrand": {"allowed"}}}
	if diags := Run([]*Package{pkg}, []Rule{WallClock{}}, cfg); len(diags) != 1 {
		t.Errorf("allowlist for another rule suppressed wallclock: got %v", diags)
	}
}

// TestRuleTestFileGating: the engine must withhold _test.go files from
// rules that exclude them (wallclock) even when the run includes tests —
// skip_test.go reads real time with no directive and must stay silent.
func TestRuleTestFileGating(t *testing.T) {
	pkg := fixture(t, "wallclock")
	for _, d := range Run([]*Package{pkg}, []Rule{WallClock{}}, Config{IncludeTests: true}) {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			t.Errorf("wallclock inspected a test file: %s", d)
		}
	}
	// Conversely, IncludeTests=false must gate even opt-in rules.
	grand := fixture(t, "globalrand")
	for _, d := range Run([]*Package{grand}, []Rule{GlobalRand{}}, Config{IncludeTests: false}) {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			t.Errorf("globalrand inspected a test file with IncludeTests=false: %s", d)
		}
	}
}

// TestDiagnosticsSorted: output order is positional, so CI diffs are
// stable run to run.
func TestDiagnosticsSorted(t *testing.T) {
	pkg := fixture(t, "wallclock")
	diags := Run([]*Package{pkg}, []Rule{WallClock{}}, Config{IncludeTests: true})
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", diags[i-1], diags[i])
		}
	}
}

func TestGoroutineLeakFixture(t *testing.T) {
	diags := runFixture(t, "goroutineleak", GoroutineLeak{})
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed goroutineleak finding, got %d", len(sup))
	}
	if want := "fire-and-forget by design"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
}

func TestDeadlockCycleFixture(t *testing.T) {
	diags := runFixture(t, "deadlockcycle", DeadlockCycle{})
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed deadlockcycle finding, got %d", len(sup))
	}
	if want := "serialization point"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
	// The interprocedural edge must carry its callee witness: lockCD's
	// finding exists only because takeD's summary says it acquires d.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Msg, "lock order cycle") && strings.Contains(d.Msg, "via") {
			found = true
		}
	}
	if !found {
		t.Error("no cycle finding flowed through a callee summary (want a 'via' edge from lockCD → takeD)")
	}
}

func TestCtxFlowFixture(t *testing.T) {
	diags := runFixture(t, "ctxflow", CtxFlow{})
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed ctxflow finding, got %d", len(sup))
	}
	if want := "outlive the request"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
	// The below-entry-point finding must name its ctx-bearing witness.
	found := false
	for _, d := range diags {
		if strings.Contains(d.Msg, "reachable from ctx-bearing") && strings.Contains(d.Msg, "fetchAll") {
			found = true
		}
	}
	if !found {
		t.Error("reachability finding does not name its witness caller fetchAll")
	}
}

func TestMetricCardinalityFixture(t *testing.T) {
	rule := MetricCardinality{BoundedFuncs: []string{"fixture/metriccardinality.tenant"}}
	diags := runFixture(t, "metriccardinality", rule)
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed metriccardinality finding, got %d", len(sup))
	}
	if want := "legacy dashboard"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
}

// TestMetricCardinalityBlessing proves BoundedFuncs is load-bearing: the
// same fixture without the blessing flags the capped mapping too.
func TestMetricCardinalityBlessing(t *testing.T) {
	pkg := fixture(t, "metriccardinality")
	diags := Run([]*Package{pkg}, []Rule{MetricCardinality{}}, Config{})
	found := false
	for _, d := range diags {
		if !d.Suppressed && strings.Contains(d.Msg, "label value tenant(") {
			found = true
		}
	}
	if !found {
		t.Error("without BoundedFuncs, tenant(user) must be flagged — blessing is doing the work")
	}
}

func TestSpanFinishFixture(t *testing.T) {
	rule := SpanFinish{Starters: []string{
		"(*fixture/spanfinish.Tracer).Start",
		"(*fixture/spanfinish.Tracer).StartRemote",
	}}
	diags := runFixture(t, "spanfinish", rule)
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed spanfinish finding, got %d", len(sup))
	}
	if want := "flight recorder snapshots it mid-flight"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
}

func TestUnusedResultFixture(t *testing.T) {
	rule := UnusedResult{Funcs: []string{
		"(*fixture/unusedresult.Store).Put",
		"(*fixture/unusedresult.Session).Complete",
		"(fixture/unusedresult.Sink).Put",
		"fixture/unusedresult.Save",
	}}
	diags := runFixture(t, "unusedresult", rule)
	sup := suppressed(diags)
	if len(sup) != 1 {
		t.Fatalf("want 1 suppressed unusedresult finding, got %d", len(sup))
	}
	if want := "best-effort cache warm"; !strings.Contains(sup[0].SuppressReason, want) {
		t.Errorf("suppress reason = %q, want it to contain %q", sup[0].SuppressReason, want)
	}
}

// TestMatchAny pins the pattern grammar shared by allowlists and rocklint's
// package arguments: an exact directory, a subtree, or everything, with a
// leading "./" ignored. A subtree pattern must not match a sibling that
// merely shares its prefix.
func TestMatchAny(t *testing.T) {
	for _, tc := range []struct {
		pat, rel string
		want     bool
	}{
		{"internal/fleet", "internal/fleet", true},
		{"./internal/fleet", "internal/fleet", true},
		{"internal/fleet", "internal/fleettest", false},
		{"internal/fleet", "internal/fleet/sub", false},
		{"internal/fleet/...", "internal/fleet", true},
		{"internal/fleet/...", "internal/fleet/sub", true},
		{"./internal/fleet/...", "internal/fleet/sub", true},
		{"internal/fleet/...", "internal/fleettest", false},
		{"...", "cmd/rocklint", true},
		{"./...", ".", true},
		{".", ".", true},
		{"internal/client", "internal/fleet", false},
	} {
		if got := matchAny([]string{tc.pat}, tc.rel); got != tc.want {
			t.Errorf("matchAny(%q, %q) = %v, want %v", tc.pat, tc.rel, got, tc.want)
		}
	}
	if matchAny(nil, "internal/fleet") {
		t.Error("no patterns matched a package")
	}
	if !matchAny([]string{"internal/client", "internal/fleet/..."}, "internal/fleet") {
		t.Error("second of two patterns was not consulted")
	}
}

// TestRunPatternMatchingNothing: a pattern that selects no package reports
// nothing, not the findings of the packages it did not name.
func TestRunPatternMatchingNothing(t *testing.T) {
	pkg := fixture(t, "wallclock")
	if all := Run([]*Package{pkg}, []Rule{WallClock{}}, Config{}); len(all) == 0 {
		t.Fatal("wallclock fixture reports nothing; the check would be vacuous")
	}
	if diags := Run([]*Package{pkg}, []Rule{WallClock{}}, Config{}, "no/such/dir"); diags != nil {
		t.Errorf("pattern matching no package reported %v", diags)
	}
	if diags := Run([]*Package{pkg}, []Rule{WallClock{}}, Config{}, "wallclock"); len(diags) == 0 {
		t.Error("pattern naming the package reported nothing")
	}
}

// TestMemoComputesOnce: a module rule runs once per package, but its
// whole-module analysis must run once per key.
func TestMemoComputesOnce(t *testing.T) {
	m := BuildModule(nil)
	calls := map[string]int{}
	for i := 0; i < 3; i++ {
		for _, key := range []string{"a", "b"} {
			got := m.Memo(key, func() any {
				calls[key]++
				return key + "!"
			})
			if got != key+"!" {
				t.Fatalf("Memo(%q) = %v, want %q", key, got, key+"!")
			}
		}
	}
	if calls["a"] != 1 || calls["b"] != 1 {
		t.Errorf("Memo ran fn %v times per key, want once each", calls)
	}
}

// TestLoaderReportsImportCycle: two module packages importing each other
// load to a type error naming the cycle, rather than recursing forever.
func TestLoaderReportsImportCycle(t *testing.T) {
	root := t.TempDir()
	for _, f := range []struct{ dir, src string }{
		{"a", "package a\n\nimport \"cyc/b\"\n\nvar A = b.B\n"},
		{"b", "package b\n\nimport \"cyc/a\"\n\nvar B = a.A\n"},
	} {
		dir := filepath.Join(root, f.dir)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.dir+".go"), []byte(f.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := NewLoaderAt(root, "cyc").LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		found := false
		for _, e := range p.TypeErrors {
			if strings.Contains(e.Error(), "import cycle") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no import-cycle error among %v", p.RelPath, p.TypeErrors)
		}
	}
}
