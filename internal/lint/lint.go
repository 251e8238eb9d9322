// Package lint is Flint's project-specific static analyzer. It enforces
// the determinism and safety invariants the engine's replay tests rely
// on but that generic tooling (go vet, gofmt) cannot see:
//
//   - wallclock: wall-clock reads (time.Now, time.Sleep, ...) are
//     forbidden outside the sanctioned metrics-only stopwatch in
//     internal/obs. Virtual time must flow through internal/simclock.
//   - simtime: packages that import internal/simclock (float64 virtual
//     seconds) must not also use stdlib time values (int64 nanosecond
//     Durations, time.Time) — mixing the two representations feeds
//     nanoseconds into seconds-typed APIs. Sanctioned boundaries (trace
//     ingestion of external wall timestamps) carry //lint:allow.
//   - globalrand: the process-global math/rand functions are forbidden
//     in non-test code; randomness must come from seeded *rand.Rand
//     instances threaded from a config.
//   - litseed: rand.NewSource/NewPCG with a bare integer-literal seed
//     hides a replay key inside the code; seeds must be threaded from a
//     config field or parameter.
//   - maporder: ranging over a map while appending to a slice, emitting
//     events, or writing output leaks Go's randomized map iteration
//     order into observable state unless a sort follows.
//   - goroutine-discipline: `go` statements are confined to the exec
//     worker pool and the webui; anywhere else they put the
//     discrete-event simulation's single-threaded invariants at risk.
//   - lockdiscipline: a mutex Lock without a deferred Unlock in the
//     same function, and channel sends while a lock is held.
//
// The analyzer is stdlib-only (go/parser, go/ast, go/types — no
// golang.org/x/tools). Findings can be suppressed with a
//
//	//lint:allow <check> <reason>
//
// comment on the offending line or the line directly above it (see
// docs/LINT.md).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one reported violation.
type Finding struct {
	Pos     token.Position // Filename is relative to the analyzed root
	Check   string
	Message string
}

// String renders the conventional file:line:col [check] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Check is one registered analysis. Per-package checks set Run and see
// one package at a time; interprocedural checks set RunModule and see
// the whole module (call graph, fact annotations, taint summaries).
// Exactly one of the two must be set.
type Check struct {
	Name      string
	Doc       string // one-line catalog entry (docs/LINT.md holds the long form)
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Checks returns the full registry in catalog order.
func Checks() []Check {
	return []Check{
		wallclockCheck,
		simtimeCheck,
		globalrandCheck,
		litseedCheck,
		maporderCheck,
		goroutineCheck,
		lockdisciplineCheck,
		detflowCheck,
		hotallocCheck,
		effectdisciplineCheck,
	}
}

// checkNames returns the set of valid check names, used to validate
// //lint:allow directives.
func checkNames() map[string]bool {
	m := make(map[string]bool)
	for _, c := range Checks() {
		m[c.Name] = true
	}
	return m
}

// Pass hands one package to a check. Files holds the package's non-test
// files; Info is the (possibly error-tolerant, possibly partially
// filled) type information. Checks must degrade gracefully when type
// resolution failed: every typed lookup has a syntactic fallback or is
// skipped.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path of the package under analysis
	Files []*ast.File
	Info  *types.Info

	// importNames maps, per file, a local package identifier to the
	// import path it was bound to — the syntactic fallback when
	// Info.Uses could not be populated.
	importNames map[*ast.File]map[string]string

	report func(check string, pos token.Pos, msg string)
}

// Reportf records a finding for the running check at pos.
func (p *Pass) reportf(check string, pos token.Pos, format string, args ...any) {
	p.report(check, pos, fmt.Sprintf(format, args...))
}

// pkgPath resolves an identifier that syntactically looks like a
// package qualifier to the import path it denotes, or "" if it is not a
// package name. Type information is consulted first (it understands
// shadowing); the per-file import table is the fallback.
func (p *Pass) pkgPath(file *ast.File, id *ast.Ident) string {
	if p.Info != nil {
		if obj, ok := p.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return "" // resolved to something else (a variable shadowing the import)
		}
	}
	if m := p.importNames[file]; m != nil {
		return m[id.Name]
	}
	return ""
}

// typeOf returns the type of e, or nil when unknown.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// buildImportNames fills the syntactic fallback import table.
func buildImportNames(files []*ast.File) map[*ast.File]map[string]string {
	out := make(map[*ast.File]map[string]string, len(files))
	for _, f := range files {
		m := make(map[string]string)
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			name := ""
			if imp.Name != nil {
				name = imp.Name.Name
			} else {
				// Default name: last path element (good enough for the
				// fallback; the typed path handles the exceptions).
				name = path[strings.LastIndex(path, "/")+1:]
			}
			if name == "_" || name == "." {
				continue
			}
			m[name] = path
		}
		out[f] = m
	}
	return out
}

// directiveCheck is the name under which malformed //lint:allow
// comments are reported. It is not a registered Check: it cannot be
// suppressed, because a malformed directive is
// exactly the thing that would silently disable a suppression.
const directiveCheck = "directive"

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	line   int
	check  string
	reason string
}

const allowPrefix = "//lint:allow"

// parseDirectives extracts the //lint:allow directives of one file.
// Malformed directives (missing check name, unknown check, or missing
// reason) are reported via report.
func parseDirectives(fset *token.FileSet, f *ast.File, valid map[string]bool,
	report func(check string, pos token.Pos, msg string)) []allowDirective {
	var out []allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, allowPrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //lint:allowother — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				report(directiveCheck, c.Pos(), "//lint:allow needs a check name and a reason")
				continue
			}
			check := fields[0]
			if !valid[check] {
				report(directiveCheck, c.Pos(), fmt.Sprintf("//lint:allow names unknown check %q", check))
				continue
			}
			if len(fields) < 2 {
				report(directiveCheck, c.Pos(), fmt.Sprintf("//lint:allow %s needs a reason", check))
				continue
			}
			out = append(out, allowDirective{
				line:   fset.Position(c.Pos()).Line,
				check:  check,
				reason: strings.Join(fields[1:], " "),
			})
		}
	}
	return out
}

// analyzePackages runs every selected check — per-package checks over
// each package, then interprocedural checks over the module view — and
// returns the surviving (non-suppressed) findings with absolute file
// names. Suppression is applied once, globally, after both phases, so a
// //lint:allow covers module-check findings at its line the same way it
// covers per-package ones.
func analyzePackages(pkgs []*localPkg, checks []Check) []Finding {
	fset := token.NewFileSet()
	if len(pkgs) > 0 {
		fset = pkgs[0].fset
	}
	var raw []Finding
	report := func(check string, pos token.Pos, msg string) {
		raw = append(raw, Finding{Pos: fset.Position(pos), Check: check, Message: msg})
	}
	moduleChecks := false
	for _, lp := range pkgs {
		pass := &Pass{
			Fset:        lp.fset,
			Path:        lp.path,
			Files:       lp.files,
			Info:        lp.info,
			importNames: buildImportNames(lp.files),
		}
		pass.report = report
		for _, c := range checks {
			if c.Run != nil {
				c.Run(pass)
			}
			moduleChecks = moduleChecks || c.RunModule != nil
		}
	}
	if moduleChecks && len(pkgs) > 0 {
		mod := buildModule(pkgs, report)
		mp := &ModulePass{Mod: mod, report: report}
		for _, c := range checks {
			if c.RunModule != nil {
				c.RunModule(mp)
			}
		}
	}

	// Suppression: an allow directive covers findings of its check on
	// its own line and on the line directly below (the standalone
	// comment-above form).
	valid := checkNames()
	allowed := make(map[string]bool) // "file\x00check:line" -> covered
	key := func(file, check string, line int) string {
		return fmt.Sprintf("%s\x00%s:%d", file, check, line)
	}
	for _, lp := range pkgs {
		for _, f := range lp.files {
			name := fset.Position(f.Pos()).Filename
			for _, d := range parseDirectives(fset, f, valid, report) {
				allowed[key(name, d.check, d.line)] = true
				allowed[key(name, d.check, d.line+1)] = true
			}
		}
	}
	var out []Finding
	for _, f := range raw {
		if f.Check != directiveCheck && allowed[key(f.Pos.Filename, f.Check, f.Pos.Line)] {
			continue
		}
		out = append(out, f)
	}
	return out
}

// SortFindings orders findings by (file, line, column, check, message).
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}
