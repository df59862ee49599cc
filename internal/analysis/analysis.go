// Package analysis is nocvet's static-analysis framework: a deliberately
// small, dependency-free mirror of the golang.org/x/tools/go/analysis API
// shape (Analyzer / Pass / Diagnostic) built on the standard library's
// go/parser and go/types plus `go list -export` for import data.
//
// The repository's correctness rests on two unwritten contracts:
//
//  1. Simulation is bit-deterministic — the golden-file CI job and every
//     seed-determinism test diff output byte for byte, so a stray map
//     iteration or wall-clock read anywhere in a simulation package turns
//     into a flaky golden diff instead of a compile error.
//  2. The Network.Step/Inject hot path is allocation-free — the headline
//     performance wins are guarded only by a benchmark smoke test that
//     fires long after the offending code landed.
//
// The analyzers in this package (detrange, detsource, hotalloc, hotcopy,
// telemetrysafe) turn both contracts into mechanical findings surfaced by
// `go run ./cmd/nocvet ./...` in `make lint` and CI; deadexport adds a
// third, that every exported identifier of an internal package has a
// non-test user. See DESIGN.md §10.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one nocvet check. Analyzers are constructed (not global
// singletons) so package-specific configuration — hot-path roots, protected
// field sets — is baked in by the driver or by a test.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics ("detrange").
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Annots holds the package's parsed //nocvet:* annotations. Analyzers
	// consult it (via Suppressed) before reporting; consulting marks the
	// annotation used, and annotations no analyzer used are themselves
	// reported by RunAnalyzers so a stale or misplaced escape hatch cannot
	// silently rot.
	Annots *Annotations

	diags []Diagnostic
}

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportPolicyf records a finding about the analyzer's own configuration: a
// policy entry that names nothing in the package and so silently checks
// nothing. Having no position of its own, it is reported at the package
// clause of the package's first file.
func (p *Pass) reportPolicyf(format string, args ...interface{}) {
	p.Reportf(p.Files[0].Package, format, args...)
}

// Suppressed reports whether a finding at pos is covered by an annotation
// with the given verb — on the same line (trailing comment) or the line
// directly above. A match marks the annotation used.
func (p *Pass) Suppressed(pos token.Pos, verb string) bool {
	return p.Annots.at(p.Fset, pos, verb) != nil
}

// RunAnalyzers runs the given analyzers over one loaded package and returns
// every diagnostic: analyzer findings, malformed //nocvet: annotations, and
// annotations that suppressed nothing. The result is sorted by position so
// nocvet's own output is deterministic.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	annots, malformed := ParseAnnotations(pkg.Fset, pkg.Syntax)
	var diags []Diagnostic
	diags = append(diags, malformed...)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Annots:    annots,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.ImportPath, err)
		}
		diags = append(diags, pass.diags...)
	}
	diags = append(diags, annots.unused()...)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
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
	return diags, nil
}
