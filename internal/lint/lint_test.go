package lint_test

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flint/internal/lint"
)

// fixtureImportPaths maps fixture directory names to the import path
// the package is analyzed under. The default is fixture/<name>; the
// exceptions exist to exercise path-sensitive checks (the
// goroutine-discipline allowlist keys on the real exec import path).
var fixtureImportPaths = map[string]string{
	"exec_ok": "flint/internal/exec",
}

// want is one expected finding, parsed from a fixture comment of the
// form `// want <check> "substring"` on the finding's line, or
// `// want-next-line <check> "substring"` on the line above it (for
// findings whose line is itself a comment, e.g. malformed directives).
type want struct {
	file    string
	line    int
	check   string
	substr  string
	matched bool
}

var wantRe = regexp.MustCompile(`// want(-next-line)? ([a-z-]+) "([^"]+)"`)

func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		wants = append(wants, parseWantsFile(t, filepath.Join(dir, e.Name()))...)
	}
	return wants
}

// parseWantsFile extracts the want comments of a single file; file is
// set to the base name (callers re-key it for tree fixtures).
func parseWantsFile(t *testing.T, path string) []*want {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wants []*want
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
			w := &want{file: filepath.Base(path), line: line, check: m[2], substr: m[3]}
			if m[1] == "-next-line" {
				w.line++
			}
			wants = append(wants, w)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestFixtures runs the full registry over each golden fixture package
// and requires the findings to match the fixture's want comments
// exactly: every finding claimed by a want, every want claimed by a
// finding.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no fixture packages under testdata/src")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(root, name)
			importPath := fixtureImportPaths[name]
			if importPath == "" {
				importPath = "fixture/" + name
			}
			findings, err := lint.AnalyzeDir(dir, importPath, lint.Options{})
			if err != nil {
				t.Fatalf("AnalyzeDir(%s): %v", dir, err)
			}
			wants := parseWants(t, dir)
			for _, f := range findings {
				claimed := false
				for _, w := range wants {
					if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line &&
						w.check == f.Check && strings.Contains(f.Message, w.substr) {
						w.matched = true
						claimed = true
						break
					}
				}
				if !claimed {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing finding: %s:%d [%s] containing %q", w.file, w.line, w.check, w.substr)
				}
			}
		})
	}
}

// TestCheckSelection proves Options.Checks narrows the run: the
// wallclock fixture is full of violations, but a run limited to
// globalrand must come back clean.
func TestCheckSelection(t *testing.T) {
	var globalrandOnly []lint.Check
	for _, c := range lint.Checks() {
		if c.Name == "globalrand" {
			globalrandOnly = append(globalrandOnly, c)
		}
	}
	if len(globalrandOnly) != 1 {
		t.Fatalf("registry has %d globalrand checks, want 1", len(globalrandOnly))
	}
	findings, err := lint.AnalyzeDir(filepath.Join("testdata", "src", "wallclock"),
		"fixture/wallclock", lint.Options{Checks: globalrandOnly})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("globalrand-only run over the wallclock fixture found %d findings, want 0: %v", len(findings), findings)
	}
}

// TestRegistry pins the registry's contents: the checks the determinism
// and hot-path stories depend on, each documented, each with exactly
// one run function (per-package or module-wide).
func TestRegistry(t *testing.T) {
	wantNames := []string{"wallclock", "simtime", "globalrand", "litseed", "maporder", "goroutine-discipline", "lockdiscipline",
		"detflow", "hotalloc", "effectdiscipline"}
	checks := lint.Checks()
	got := make(map[string]bool, len(checks))
	for _, c := range checks {
		if c.Doc == "" {
			t.Errorf("check %s has no doc string", c.Name)
		}
		if (c.Run == nil) == (c.RunModule == nil) {
			t.Errorf("check %s must have exactly one of Run and RunModule", c.Name)
		}
		if got[c.Name] {
			t.Errorf("check %s registered twice", c.Name)
		}
		got[c.Name] = true
	}
	for _, n := range wantNames {
		if !got[n] {
			t.Errorf("registry is missing check %s", n)
		}
	}
	if len(checks) != len(wantNames) {
		t.Errorf("registry has %d checks, want %d", len(checks), len(wantNames))
	}
}

// TestRepoClean is the contract the CI lint job enforces: flintlint
// over the real repository reports zero findings. A finding means new
// nondeterminism or lock misuse slipped in; fix it, or suppress it at
// the call site with //lint:allow and a written reason.
func TestRepoClean(t *testing.T) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.AnalyzeModule(root, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
}
