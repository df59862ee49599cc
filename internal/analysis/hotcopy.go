package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotCopyMaxBytes is the largest struct or array the simulator hot path may
// copy: one cache line. The noc.Config and flit.Layout copies this rule was
// written against are 104 and 160 bytes.
const hotCopyMaxBytes = 64

// NewHotCopy builds the hotcopy analyzer. Every function reached from the
// roots — the same static intra-package walk as hotalloc — is checked for
// two kinds of copy of a struct or array larger than hotCopyMaxBytes (sized
// as on a 64-bit gc target):
//
//   - by-value receivers and parameters, copied on every call;
//   - locals declared from an existing variable, field, element or pointee
//     (`cfg := g.m.cfg`, `var l = *p`), copied every time the declaration
//     runs. Locals built by a call or a composite literal are new values,
//     not copies, and are not flagged.
//
// On the per-cycle path either means a copy per active router per cycle.
// Pass a pointer, or read the few fields needed into locals.
// `//nocvet:allowcopy <reason>` on the flagged line, or on the function
// declaration, is the escape hatch.
func NewHotCopy(roots []string) *Analyzer {
	sizes := types.SizesFor("gc", "amd64")
	a := &Analyzer{
		Name: "hotcopy",
		Doc:  "flags large struct and array copies (by-value parameters, locals copied from existing values) in functions reachable from the simulator hot path",
	}
	a.Run = func(pass *Pass) error {
		for _, hf := range hotFuncs(pass, roots) {
			if pass.Suppressed(hf.decl.Pos(), "allowcopy") {
				continue
			}
			check := func(pos token.Pos, t types.Type, what string) {
				if t == nil {
					return
				}
				switch t.Underlying().(type) {
				case *types.Struct, *types.Array:
				default:
					return
				}
				size := sizes.Sizeof(t)
				if size <= hotCopyMaxBytes || pass.Suppressed(pos, "allowcopy") {
					return
				}
				pass.Reportf(pos, "%s %s copies %d bytes per call on the hot path (%s); pass a pointer or annotate //nocvet:allowcopy <reason>",
					what, types.TypeString(t, types.RelativeTo(pass.Pkg)), size, hf.path)
			}
			sig := hf.obj.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil {
				check(recv.Pos(), recv.Type(), "by-value receiver")
			}
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				check(p.Pos(), p.Type(), "by-value parameter")
			}
			ast.Inspect(hf.decl.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false // hotalloc already flags the closure itself
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, rhs := range n.Rhs {
						if readsExisting(rhs) {
							check(n.Lhs[i].Pos(), pass.TypesInfo.TypeOf(rhs), "local")
						}
					}
				case *ast.ValueSpec:
					if len(n.Names) != len(n.Values) {
						return true
					}
					for i, v := range n.Values {
						if readsExisting(v) {
							check(n.Names[i].Pos(), pass.TypesInfo.TypeOf(n.Names[i]), "local")
						}
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// readsExisting reports whether e names a value that already lives
// somewhere — a variable, a field, an element or a pointee — so that
// assigning it to a new local copies it.
func readsExisting(e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}
