package analysis

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadFixtureDir type-checks the single package under dir (an analyzer
// fixture, typically inside a testdata tree `go list` pattern expansion
// skips). Imports are resolved the same way as Load, via one `go list
// -export -deps` over the fixture's import set.
func LoadFixtureDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files", dir)
	}
	sort.Strings(files)
	// A pre-pass collects the imports so their export data can be listed.
	fset := token.NewFileSet()
	imports := map[string]bool{}
	for _, f := range files {
		pf, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, im := range pf.Imports {
			imports[strings.Trim(im.Path.Value, `"`)] = true
		}
	}
	exports := map[string]string{}
	if len(imports) > 0 {
		pats := make([]string, 0, len(imports))
		for im := range imports { //nocvet:orderfree keys are sorted before use
			pats = append(pats, im)
		}
		sort.Strings(pats)
		listed, err := goList(dir, pats)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return check("fixture/"+filepath.Base(dir), dir, files, exports)
}
