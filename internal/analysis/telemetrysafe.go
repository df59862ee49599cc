package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// ProtectedField names one piece of scheduler state as (named type, field).
type ProtectedField struct {
	Type  string
	Field string
}

// NewTelemetrySafe builds the telemetrysafe analyzer: every mutation of the
// event-driven scheduler's bookkeeping — activity bitmaps, occupancy and
// request masks, flit counters — must go through the edge helpers defined
// in the allowed files (sched.go), because those helpers are what the
// brute-force invariant audit certifies. A direct `r.occ |= ...` elsewhere
// compiles fine and desynchronizes the active sets from the buffers in a
// way that only surfaces as a wedged or silently-wrong simulation.
//
// Flagged: assignments (including op-assign), ++/--, and taking the address
// of a protected field, in any file not in allowedFiles. There is no
// annotation escape: new scheduler-state transitions belong in sched.go.
// A protected field that names no field of the package, or an allowed file
// that is none of its files, is a finding too: after a rename it would
// silently stop guarding anything.
func NewTelemetrySafe(protected []ProtectedField, allowedFiles []string) *Analyzer {
	prot := map[ProtectedField]bool{}
	for _, p := range protected {
		prot[p] = true
	}
	allowed := map[string]bool{}
	for _, f := range allowedFiles {
		allowed[f] = true
	}
	a := &Analyzer{
		Name: "telemetrysafe",
		Doc:  "requires scheduler-state mutations to go through the sched.go edge helpers",
	}
	report := func(pass *Pass, pos token.Pos, what string, pf ProtectedField) {
		pass.Reportf(pos,
			"%s of scheduler state %s.%s outside %v: use the sched.go edge helpers (gain/lose, markOccupied/clearOccupied, routeInput/unrouteInput, grantVA/retireRouted, disableOutput, refuse) so the invariant audit keeps covering every transition",
			what, pf.Type, pf.Field, allowedFiles)
	}
	a.Run = func(pass *Pass) error {
		for _, pf := range protected {
			if !isField(pass.Pkg, pf) {
				pass.reportPolicyf("protected field %s.%s names no field of %s, so its mutations go unchecked", pf.Type, pf.Field, pass.Pkg.Path())
			}
		}
		files := map[string]bool{}
		for _, f := range pass.Files {
			base := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
			files[base] = true
			if allowed[base] {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if pf, ok := protectedTarget(pass, lhs, prot); ok {
							report(pass, lhs.Pos(), "direct mutation", pf)
						}
					}
				case *ast.IncDecStmt:
					if pf, ok := protectedTarget(pass, n.X, prot); ok {
						report(pass, n.X.Pos(), "direct mutation", pf)
					}
				case *ast.UnaryExpr:
					if n.Op != token.AND {
						return true
					}
					if pf, ok := protectedTarget(pass, n.X, prot); ok {
						report(pass, n.Pos(), "taking the address", pf)
					}
				}
				return true
			})
		}
		for _, f := range allowedFiles {
			if !files[f] {
				pass.reportPolicyf("allowed file %s is no file of %s", f, pass.Pkg.Path())
			}
		}
		return nil
	}
	return a
}

// isField reports whether pf names a field, direct or promoted, of a named
// type declared in pkg.
func isField(pkg *types.Package, pf ProtectedField) bool {
	tn, ok := pkg.Scope().Lookup(pf.Type).(*types.TypeName)
	if !ok {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, pf.Field)
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// protectedTarget unwraps an assignment target (parens, indexing, derefs)
// down to a field selection and reports whether it hits a protected field.
func protectedTarget(pass *Pass, e ast.Expr, prot map[ProtectedField]bool) (ProtectedField, bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return ProtectedField{}, false
			}
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				return ProtectedField{}, false
			}
			pf := ProtectedField{Type: named.Obj().Name(), Field: sel.Obj().Name()}
			return pf, prot[pf]
		default:
			return ProtectedField{}, false
		}
	}
}
