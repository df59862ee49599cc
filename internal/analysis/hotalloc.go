package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NewHotAlloc builds the hotalloc analyzer. roots name the hot-path entry
// points as "Recv.Method" (receiver type without pointer) or "Func"; every
// function in the package statically reachable from a root — direct calls
// and concrete method calls, walked conservatively within the package — is
// checked for allocation-inducing constructs:
//
//   - make / new
//   - append, except the self-delete idiom append(s[:i], s[j:]...) which
//     re-slices in place and can never grow
//   - &T{...} and map/slice composite literals
//   - function literals (closure allocation)
//   - any call into package fmt (formatting allocates)
//   - interface boxing: passing or assigning a concrete basic-typed value
//     where an interface is expected
//
// Dynamic calls (interfaces, func values) are not traversed: the walk is
// deliberately intra-package and static, which keeps it sound for the
// simulator core where the hot path is concrete. `//nocvet:allowalloc
// <reason>` on the flagged line — or on the function declaration for a
// whole cold function — is the escape hatch, and the reason is mandatory.
func NewHotAlloc(roots []string) *Analyzer {
	a := &Analyzer{
		Name: "hotalloc",
		Doc:  "flags allocation-inducing constructs in functions reachable from the simulator hot path",
	}
	a.Run = func(pass *Pass) error {
		for _, hf := range hotFuncs(pass, roots) {
			// A function-level annotation (on the declaration line or the
			// last doc line) marks the whole body a sanctioned cold path.
			if pass.Suppressed(hf.decl.Pos(), "allowalloc") {
				continue
			}
			checkAllocs(pass, hf.decl.Body, hf.path)
		}
		return nil
	}
	return a
}

// hotFunc is one function declaration reached from a hot-path root.
type hotFunc struct {
	decl *ast.FuncDecl
	obj  *types.Func
	path string // discovery chain, e.g. "Network.Step -> Router.phaseSAST"
}

// hotFuncs walks the package's static intra-package call graph from the
// named roots ("Recv.Method" or "Func") and returns every reached function
// declaration in file/declaration order, so reports are deterministic.
// Dynamic calls (interfaces, func values) are not traversed. A root that
// names no function of the package is itself a finding: after a rename it
// would otherwise drop its whole call graph from the check unnoticed.
func hotFuncs(pass *Pass, roots []string) []hotFunc {
	missing := map[string]bool{} // the roots no declaration has matched yet
	for _, r := range roots {
		missing[r] = true
	}
	// Index every function declaration by its types object.
	decls := map[*types.Func]*ast.FuncDecl{}
	names := map[*types.Func]string{}
	var rootFns []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[obj] = fd
			name := funcDisplayName(obj)
			names[obj] = name
			if missing[name] {
				rootFns = append(rootFns, obj)
				delete(missing, name)
			}
		}
	}
	for _, r := range roots {
		if missing[r] {
			pass.reportPolicyf("hot-path root %q names no function of %s, so nothing it reaches is checked", r, pass.Pkg.Path())
		}
	}
	// BFS over static intra-package calls; via[f] is the caller through
	// which f was first reached, for readable "Step → phaseSAST" paths.
	via := map[*types.Func]*types.Func{}
	reached := map[*types.Func]bool{}
	queue := append([]*types.Func{}, rootFns...)
	for _, r := range rootFns {
		reached[r] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(pass.TypesInfo, call)
			if callee == nil || reached[callee] {
				return true
			}
			if _, inPkg := decls[callee]; !inPkg {
				return true
			}
			reached[callee] = true
			via[callee] = fn
			queue = append(queue, callee)
			return true
		})
	}
	// Iterate files/decls (not the map) for deterministic report order.
	var out []hotFunc
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil || !reached[obj] {
				continue
			}
			out = append(out, hotFunc{decl: fd, obj: obj, path: callPath(obj, via, names)})
		}
	}
	return out
}

// checkAllocs reports allocation-inducing constructs in one reachable body.
func checkAllocs(pass *Pass, body *ast.BlockStmt, path string) {
	report := func(pos ast.Node, format string, args ...interface{}) {
		if pass.Suppressed(pos.Pos(), "allowalloc") {
			return
		}
		args = append(args, path)
		pass.Reportf(pos.Pos(), format+" on the hot path (%s); move it off the path or annotate //nocvet:allowalloc <reason>", args...)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			report(n, "closure allocation")
			return false // its body runs only if the closure is called
		case *ast.UnaryExpr:
			if cl, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				report(n, "heap allocation &%s{...}", litTypeString(pass, cl))
				return false
			}
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice:
					report(n, "%s literal allocates", litTypeString(pass, n))
				}
			}
		case *ast.CallExpr:
			checkCallAlloc(pass, n, report)
		}
		return true
	})
}

// litTypeString renders a composite literal's type for a diagnostic.
func litTypeString(pass *Pass, cl *ast.CompositeLit) string {
	if t := pass.TypesInfo.TypeOf(cl); t != nil {
		return types.TypeString(t, types.RelativeTo(pass.Pkg))
	}
	return "composite"
}

// checkCallAlloc handles the call-shaped allocation sources: builtins,
// fmt, and interface boxing at the call boundary.
func checkCallAlloc(pass *Pass, call *ast.CallExpr, report func(ast.Node, string, ...interface{})) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				report(call, "%s allocates", b.Name())
			case "append":
				if !isSelfDeleteAppend(call) {
					report(call, "append may grow its backing array")
				}
			}
			return
		}
	}
	if callee := staticCallee(pass.TypesInfo, call); callee != nil {
		if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "fmt" {
			report(call, "fmt.%s formats (and allocates)", callee.Name())
			return
		}
		// Interface boxing at the call boundary: a concrete basic-typed
		// argument passed as an interface parameter escapes to the heap.
		sig, ok := callee.Type().(*types.Signature)
		if !ok {
			return
		}
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= params.Len()-1:
				if call.Ellipsis.IsValid() {
					continue // passing a slice through, no boxing
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			case i < params.Len():
				pt = params.At(i).Type()
			default:
				continue
			}
			if !types.IsInterface(pt) {
				continue
			}
			at := pass.TypesInfo.TypeOf(arg)
			if at == nil || types.IsInterface(at) {
				continue
			}
			if _, basic := at.Underlying().(*types.Basic); basic {
				report(arg, "interface boxing of %s argument", types.TypeString(at, types.RelativeTo(pass.Pkg)))
			}
		}
	}
}

// isSelfDeleteAppend recognizes append(s[:i], s[j:]...) — the in-place
// element-removal idiom, whose result length never exceeds the original
// length and therefore never reallocates.
func isSelfDeleteAppend(call *ast.CallExpr) bool {
	if !call.Ellipsis.IsValid() || len(call.Args) != 2 {
		return false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr)
	if !ok || dst.High == nil {
		return false
	}
	src, ok := ast.Unparen(call.Args[1]).(*ast.SliceExpr)
	if !ok {
		return false
	}
	return sameSimpleExpr(dst.X, src.X)
}

// sameSimpleExpr reports structural equality for the small expression
// grammar that appears as a slice base (identifiers, field selections,
// constant indexes). Anything more exotic is conservatively unequal.
func sameSimpleExpr(a, b ast.Expr) bool {
	switch a := ast.Unparen(a).(type) {
	case *ast.Ident:
		b, ok := ast.Unparen(b).(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := ast.Unparen(b).(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameSimpleExpr(a.X, b.X)
	case *ast.IndexExpr:
		b, ok := ast.Unparen(b).(*ast.IndexExpr)
		return ok && sameSimpleExpr(a.X, b.X) && sameSimpleExpr(a.Index, b.Index)
	case *ast.BasicLit:
		b, ok := ast.Unparen(b).(*ast.BasicLit)
		return ok && a.Kind == b.Kind && a.Value == b.Value
	}
	return false
}

// staticCallee resolves the *types.Func a call statically dispatches to:
// a plain function, or a method called on a concrete (non-interface)
// receiver. Dynamic calls resolve to nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		if fn == nil {
			return nil
		}
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil // dynamic dispatch
			}
		}
		return fn
	}
	return nil
}

// funcDisplayName renders a function as "Recv.Name" (pointerless receiver)
// or "Name", matching the root-spec syntax.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// callPath renders the discovery chain root -> ... -> fn.
func callPath(fn *types.Func, via map[*types.Func]*types.Func, names map[*types.Func]string) string {
	var parts []string
	for f := fn; f != nil; f = via[f] {
		parts = append(parts, names[f])
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " -> ")
}
