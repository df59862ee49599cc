package analysis_test

// The fixture harness mirrors the golang.org/x/tools/go/analysis/analysistest
// workflow:
//
//	func F() {
//		m := map[int]int{}
//		for k := range m { // want `nondeterministic iteration`
//			_ = k
//		}
//	}
//
// A `// want` comment carries one or more quoted regular expressions
// (double quotes or backquotes); every diagnostic reported on that line
// must match one expectation and every expectation must be matched by a
// diagnostic, so fixtures demonstrate both the flagged and the permitted
// pattern of each analyzer.

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"tasp/internal/analysis"
)

// wantRE extracts the quoted expectations from a `// want` comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

// runFixture loads the fixture package in dir and checks the analyzers'
// diagnostics against its `// want` expectations.
func runFixture(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadFixtureDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	checkWants(t, pkg, analyzers...)
}

// checkWants applies the analyzers to pkg and reports through t any
// mismatch between their diagnostics and the `// want` expectations.
func checkWants(t *testing.T, pkg *analysis.Package, analyzers ...*analysis.Analyzer) {
	t.Helper()
	diags, err := analysis.RunAnalyzers(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", pkg.ImportPath, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range wantRE.FindAllString(c.Text[i+len("// want "):], -1) {
					re, err := regexp.Compile(q[1 : len(q)-1])
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := map[*regexp.Regexp]bool{}
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		ok := false
		for _, re := range wants[k] {
			if !matched[re] && re.MatchString(d.Message) {
				matched[re] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	var missing []string
	for k, res := range wants { //nocvet:orderfree collected messages are sorted before reporting
		for _, re := range res {
			if !matched[re] {
				missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
			}
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}
