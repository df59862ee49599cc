package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Uses is the set of exported module identifiers some non-test code refers
// to, keyed by objectKey: "pkgpath.Name" for a package-level object and
// "pkgpath.Recv.Name" for a method.
type Uses map[string]bool

// NewDeadExport builds the deadexport analyzer. It reports every exported
// package-level function, type, variable or constant of the package, and
// every exported method declared in it, that uses does not contain. A use
// from inside the package counts: renaming an identifier only its own
// package calls removes nothing. Struct fields are not checked.
// `//nocvet:keep <reason>` on the declaration line or the line above is
// the escape hatch; the reason names the test, paper remark or open
// ROADMAP item that needs the identifier.
func NewDeadExport(uses Uses) *Analyzer {
	a := &Analyzer{
		Name: "deadexport",
		Doc:  "flags exported identifiers of internal packages that no non-test code uses",
	}
	a.Run = func(pass *Pass) error {
		report := func(id *ast.Ident) {
			obj := pass.TypesInfo.Defs[id]
			if !id.IsExported() || obj == nil {
				return
			}
			key := objectKey(obj)
			if key == "" || uses[key] || pass.Suppressed(id.Pos(), "keep") {
				return
			}
			pass.Reportf(id.Pos(), "%s is exported but no non-test code uses it; delete it or annotate //nocvet:keep <reason>",
				strings.TrimPrefix(key, pass.Pkg.Path()+"."))
		}
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					report(d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							report(s.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								report(n)
							}
						}
					}
				}
			}
		}
		return nil
	}
	return a
}

// objectKey names a package-level object or a method of a named type
// across type-checker universes: each package is checked on its own, so
// the object a user refers to is not the object its package declares.
// Other objects (fields, locals, methods of unnamed interfaces) get "".
func objectKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if _, ok := t.(*types.Named); !ok {
				return ""
			}
			return pkg.Path() + "." + funcDisplayName(fn)
		}
	}
	if pkg.Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return pkg.Path() + "." + obj.Name()
}

// LoadUses type-checks the non-test packages of every UserModules module
// under root, the simulator module's directory, and returns what they use.
func LoadUses(root string) (Uses, error) {
	var pkgs []*Package
	for _, m := range UserModules {
		dir := filepath.Join(root, m)
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		loaded, err := Load(dir, "./...")
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, loaded...)
	}
	return CollectUses(pkgs), nil
}

// CollectUses returns the identifiers of the packages that the packages
// refer to. A method also counts as used when its type implements an interface
// that names it: an interface declared or used by one of the packages, or
// declared by a package one of them imports (error and fmt.Stringer among
// them), or the errors package's Unwrap() error. Such a method may be
// called only through the interface, which the type checker records as a
// use of the interface's method.
func CollectUses(pkgs []*Package) Uses {
	errType := types.Universe.Lookup("error").Type()
	// errors.Is and errors.As assert this interface inside their bodies,
	// which export data does not carry.
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(0, nil, "", errType)), false))}, nil).Complete()
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[p.ImportPath] = true
	}
	uses := Uses{}
	mark := func(obj types.Object) {
		if obj.Exported() && obj.Pkg() != nil && loaded[obj.Pkg().Path()] {
			if key := objectKey(obj); key != "" {
				uses[key] = true
			}
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.TypesInfo.Uses { //nocvet:orderfree builds a set
			mark(obj)
		}
		ifaces := []*types.Interface{errType.Underlying().(*types.Interface), unwrap}
		for _, tv := range p.TypesInfo.Types { //nocvet:orderfree builds a set
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
		var named []*types.Named
		seen := map[*types.Package]bool{}
		var walk func(*types.Package)
		walk = func(tp *types.Package) {
			if seen[tp] {
				return
			}
			seen[tp] = true
			scope := tp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				t, ok := tn.Type().(*types.Named)
				if !ok || t.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := t.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				} else if loaded[tp.Path()] {
					named = append(named, t)
				}
			}
			for _, im := range tp.Imports() {
				walk(im)
			}
		}
		walk(p.Types)
		for _, t := range named {
			ptr := types.NewPointer(t)
			for _, it := range ifaces {
				if it.NumMethods() == 0 || !it.IsMethodSet() || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						mark(obj)
					}
				}
			}
		}
	}
	return uses
}
