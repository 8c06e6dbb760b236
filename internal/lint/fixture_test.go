// The fixture harness for simlint analyzers — the
// project's stdlib-only analogue of golang.org/x/tools/go/analysis/
// analysistest. A fixture is a package directory under
// internal/lint/testdata/src; expectations are written in the fixture
// source as comments of the form
//
//	code() // want `regexp`
//	code() // want `regexp1` `regexp2`
//
// where each back-quoted regexp must match the message of exactly one
// diagnostic reported on that line, every diagnostic must be matched by
// some expectation, and a fixture with no want-comments asserts the
// analyzer stays silent. The full driver pipeline runs, including
// //lint:allow filtering, so fixtures can also assert the suppression
// mechanism itself.
package lint_test

import (
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint"
)

// srcRoot returns the testdata/src directory, located relative to this
// source file so tests work from any working directory.
func srcRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		panic("fixture: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata", "src")
}

// fixtureLoader returns a loader that resolves import paths inside testdata/src
// first (so fixtures can model guarded packages like a fake internal/trace)
// and falls back to the real module for everything else.
func fixtureLoader(t *testing.T) *lint.Loader {
	t.Helper()
	root := srcRoot()
	modRoot, modPath := moduleInfo(t)
	l := lint.NewLoader(modRoot, modPath)
	module := l.Resolve
	l.Resolve = func(path string) (string, bool) {
		if dir := filepath.Join(root, filepath.FromSlash(path)); dirHasGo(dir) {
			return dir, true
		}
		return module(path)
	}
	return l
}

func moduleInfo(t *testing.T) (root, path string) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("fixture: cannot locate caller")
	}
	// internal/lint/fixture_test.go -> module root two levels up.
	return filepath.Join(filepath.Dir(file), "..", ".."), "repro"
}

func dirHasGo(dir string) bool {
	m, err := filepath.Glob(filepath.Join(dir, "*.go"))
	return err == nil && len(m) > 0
}

// runFixture loads the fixture package (an import path under testdata/src), runs
// the given analyzers through the full pipeline, and diffs the resulting
// diagnostics against the fixture's want-comments.
func runFixture(t *testing.T, fixture string, analyzers ...*lint.Analyzer) {
	t.Helper()
	loader := fixtureLoader(t)
	pkg, err := loader.Load(fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := lint.Run(pkg, analyzers, lint.KnownNames())
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", fixture, err)
	}

	wants := parseWants(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := posKey{filepath.Base(pos.Filename), pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: expected a diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
}

type posKey struct {
	file string
	line int
}

type want struct {
	re   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile("`([^`]*)`")

// parseWants extracts want-comments from every fixture file.
func parseWants(t *testing.T, pkg *lint.Package) map[posKey][]*want {
	t.Helper()
	wants := make(map[posKey][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(c.Text[i:], -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment (no back-quoted regexp): %s", p, c.Text)
				}
				k := posKey{filepath.Base(p.Filename), p.Line}
				for _, m := range ms {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", p, m[1], err)
					}
					wants[k] = append(wants[k], &want{re: re})
				}
			}
		}
	}
	return wants
}
