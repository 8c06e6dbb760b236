package lint

import (
	"go/ast"
	"regexp"
	"strings"
	"unicode"
	"unicode/utf8"
)

// SpecMirror audits the naive.go reference-spec convention. Two packages
// (internal/cluster, internal/core) keep a verbatim, obviously-correct
// implementation of their hot paths in a file named naive.go; the optimized
// implementations are proven equivalent to it by randomized audit and
// equivalence tests. That proof only means something while three structural
// facts hold, which this analyzer checks for every `naive`-prefixed function
// declared in a naive.go file:
//
//  1. It has a matching optimized counterpart in the same package: a
//     function or method whose name is the spec name with the `naive`
//     prefix stripped (first-letter case-insensitive) — or, when the
//     optimized path has a different shape, one named explicitly in the spec's doc comment with
//     a `Mirrors: <name>` line. A spec with no counterpart is dead weight
//     that will silently drift from the code it is supposed to check.
//  2. The named counterpart actually exists (a stale `Mirrors:` line is an
//     error).
//  3. It is anchored by the package's tests: reachable, through same-
//     package calls, from an identifier referenced in a *_test.go file.
//     An unreachable spec is one no equivalence test can be exercising —
//     the audit exists only on paper.
//
// Runtime backstop: the naive-equivalence tests themselves
// (TestColumnarMatchesNaive, the cluster audit tests) — which cannot notice
// that they stopped covering a spec function.
var SpecMirror = &Analyzer{
	Name:    "specmirror",
	Doc:     "every naive.go spec func needs an optimized counterpart and a test-reachable equivalence anchor",
	Default: true,
	Run:     runSpecMirror,
}

const naivePrefixLen = len("naive")

// mirrorsRe extracts the counterpart name from a "Mirrors: name" doc line.
var mirrorsRe = regexp.MustCompile(`(?m)^\s*Mirrors:\s*([A-Za-z_][A-Za-z_0-9]*)\s*\.?\s*$`)

func runSpecMirror(pass *Pass) error {
	// Gather every function declaration in the package, noting which come
	// from naive.go files.
	type fn struct {
		decl  *ast.FuncDecl
		naive bool
	}
	var fns []fn
	declared := make(map[string]bool)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		isNaive := strings.HasSuffix(name, "/naive.go") || name == "naive.go"
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fns = append(fns, fn{decl: fd, naive: isNaive})
			declared[fd.Name.Name] = true
		}
	}
	hasNaive := false
	for _, f := range fns {
		if f.naive {
			hasNaive = true
			break
		}
	}
	if !hasNaive {
		return nil
	}

	decls := make([]*ast.FuncDecl, len(fns))
	for i, f := range fns {
		decls[i] = f.decl
	}
	reached := testReachable(pass, decls)

	for _, f := range fns {
		name := f.decl.Name.Name
		if !f.naive || !isNaiveName(name) {
			continue
		}
		// Counterpart check.
		if mirror := mirrorsDirective(f.decl); mirror != "" {
			if !declared[mirror] {
				pass.Reportf(f.decl.Name.Pos(),
					"spec %s declares \"Mirrors: %s\" but %s is not declared in this package", name, mirror, mirror)
			}
		} else if c, ok := counterpartName(name, declared); !ok {
			pass.Reportf(f.decl.Name.Pos(),
				"spec %s has no optimized counterpart %s in this package; add one or name it with a \"Mirrors: <name>\" doc line", name, c)
		}
		// Anchoring check.
		if !reached[name] {
			pass.Reportf(f.decl.Name.Pos(),
				"spec %s is not reachable from any *_test.go in this package; an equivalence test must anchor it", name)
		}
	}
	return nil
}

// isNaiveName reports whether name carries the spec prefix.
func isNaiveName(name string) bool {
	if len(name) <= naivePrefixLen {
		return false
	}
	return strings.EqualFold(name[:naivePrefixLen], "naive")
}

// counterpartName derives the expected optimized name(s) for a spec and
// reports whether any is declared. The returned string names the primary
// candidate for the diagnostic.
func counterpartName(name string, declared map[string]bool) (string, bool) {
	stripped := name[naivePrefixLen:]
	lower := lowerFirst(stripped)
	upper := upperFirst(stripped)
	for _, cand := range []string{upper, lower} {
		if declared[cand] {
			return cand, true
		}
	}
	return upper + " (or " + lower + ")", false
}

func lowerFirst(s string) string {
	r, n := utf8.DecodeRuneInString(s)
	return string(unicode.ToLower(r)) + s[n:]
}

func upperFirst(s string) string {
	r, n := utf8.DecodeRuneInString(s)
	return string(unicode.ToUpper(r)) + s[n:]
}

// mirrorsDirective returns the counterpart named by a "Mirrors: x" doc-
// comment line, or "".
func mirrorsDirective(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	m := mirrorsRe.FindStringSubmatch(fd.Doc.Text())
	if m == nil {
		return ""
	}
	return m[1]
}

// testReachable computes, name-wise, which package functions are reachable
// from identifiers mentioned in the package's _test.go files: the seed set
// is every identifier in every test file; a function whose name is reached
// contributes every identifier in its body. Name-based resolution (rather
// than object-based) is deliberate — test files are parsed but not type-
// checked — and is sound for this purpose up to shadowing, which the
// naming convention (naiveX, allocateXJob) makes a non-issue.
func testReachable(pass *Pass, fns []*ast.FuncDecl) map[string]bool {
	bodies := make(map[string]map[string]bool, len(fns))
	for _, fd := range fns {
		refs := make(map[string]bool)
		if fd.Body != nil {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					refs[id.Name] = true
				}
				return true
			})
		}
		bodies[fd.Name.Name] = refs
	}

	reached := make(map[string]bool)
	var enqueue func(name string)
	enqueue = func(name string) {
		if reached[name] {
			return
		}
		refs, isFunc := bodies[name]
		if !isFunc {
			return
		}
		reached[name] = true
		for r := range refs {
			enqueue(r)
		}
	}
	for _, tf := range pass.TestFiles {
		ast.Inspect(tf, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				enqueue(id.Name)
			}
			return true
		})
	}
	return reached
}
