// Package lint is simlint's analysis framework: a deliberately small,
// dependency-free mirror of the golang.org/x/tools/go/analysis API shape.
//
// The repository's determinism and correctness invariants — seeded RNG
// substreams only, no wall-clock reads inside the simulation, deterministic
// iteration and accumulation order, finiteness-validated codecs — are
// enforced at runtime by golden-figure and bit-identity tests. Those tests
// only fire after a regression has already been written. The analyzers in
// this package move the same rules to build time: `make lint` (and
// therefore `make check`) fails on the first commit that reads the wall
// clock from a simulation package or appends to a slice while ranging over
// a map.
//
// x/tools itself is not vendored (the build must work fully offline, and the
// module tree is dependency-free by policy), so the framework re-implements
// the three pieces it needs on the standard library alone: a package loader
// built on go/parser + go/types with a source-based importer (load.go), the
// Analyzer/Pass/Diagnostic triple (this file), and an analysistest-style
// fixture runner driven by `// want` comments (fixture_test.go). The API
// shapes are kept close enough to x/tools that migrating an analyzer to a real
// *analysis.Analyzer is mechanical should the dependency ever land.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. It mirrors analysis.Analyzer: a Name used in
// -only/-skip flags and //lint:allow comments, a one-line Doc, and a Run
// function invoked once per loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, command-line filters and
	// allow-comments. Lower-case, no spaces.
	Name string
	// Doc is the one-line invariant statement shown by `simlint -list`.
	Doc string
	// Default reports whether the analyzer runs when no -only filter is
	// given. Informational analyzers (fieldalign) are opt-in.
	Default bool
	// Run performs the check, reporting findings through pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path ("repro/internal/trace"). Analyzers
	// that exempt packages (seedflow exempts internal/dist) key off it.
	Path string
	// Files are the package's non-test files, fully type-checked.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Sizes is the gc/amd64 layout model, used by fieldalign.
	Sizes types.Sizes

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Run executes the given analyzers over one loaded package and returns the
// surviving diagnostics: findings suppressed by a matching //lint:allow
// comment are dropped, and the allow-comments themselves are audited (an
// unknown analyzer name, a missing reason, or a comment that suppresses
// nothing is itself a diagnostic — stale suppressions rot fast otherwise).
// known names the allow auditor accepts beyond the analyzers actually run
// (so `simlint -only seedflow` does not mis-report every other allow
// comment as unknown) come from knownNames.
func Run(pkg *Package, analyzers []*Analyzer, knownNames map[string]bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	executed := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		executed[a.Name] = true
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Sizes:    pkg.Sizes,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	diags = filterAllowed(pkg, diags, knownNames, executed)
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// sortDiagnostics orders findings by file position, then analyzer name, so
// output is stable across runs and analyzer registration order.
func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
