package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one type-checked, non-test package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load type-checks every non-test package matching the go-list patterns,
// resolving imports from compiler export data (`go list -export`) so no
// third-party loader is needed: the toolchain's build cache is the only
// dependency. dir is the module directory the patterns are relative to.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var targets []*listedPkg
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			if p.Error != nil {
				return nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
			}
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	var pkgs []*Package
	for _, t := range targets {
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := check(t.ImportPath, t.Dir, files, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// ModuleDir returns the directory of the module with the given path, as
// the module at dir sees it: its own directory, or that of a requirement
// (the benchmark module replaces the simulator's with its parent).
func ModuleDir(dir, path string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}", path)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m %s: %v\n%s", path, err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// goList runs `go list -e -export -json -deps` on the patterns and decodes
// the JSON stream. -export makes the toolchain produce (or reuse) compiler
// export data for every listed package; -deps pulls in the transitive
// closure so the type-checker's importer can resolve any path it meets.
func goList(dir string, patterns []string) ([]*listedPkg, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPkg
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// check parses and type-checks one package whose imports resolve through
// the export-data map.
func check(importPath, dir string, filenames []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	var syntax []*ast.File
	for _, f := range filenames {
		pf, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, pf)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exp)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Syntax:     syntax,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}
