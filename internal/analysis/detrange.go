package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewDetRange builds the detrange analyzer: `for ... range` over a value of
// map type in a simulation package is nondeterministic iteration order, the
// exact bug class that turns into a flaky golden-file diff. The loop is
// permitted when it binds no variables (a pure counting loop observes no
// order) or when annotated `//nocvet:orderfree <reason>`. Iterating a
// sorted key slice is the sanctioned pattern and is naturally not flagged —
// the range operand is then a slice, not a map. No reason makes a body
// order-free that accumulates into a floating-point variable declared
// outside the loop (`+=`, `-=`, `*=`, `/=`): float arithmetic is not
// associative, so such a loop is reported despite its annotation.
func NewDetRange() *Analyzer {
	a := &Analyzer{
		Name: "detrange",
		Doc:  "flags map iteration in simulation packages: order is nondeterministic and leaks straight into golden output",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypesInfo.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if rs.Key == nil && rs.Value == nil {
					// `for range m {}` binds nothing: the body cannot
					// observe iteration order.
					return true
				}
				if pass.Suppressed(rs.Pos(), "orderfree") {
					if acc := floatAccumulator(pass, rs); acc != nil {
						pass.Reportf(rs.Pos(),
							"order-dependent floating-point accumulation into %s over map %s: float arithmetic is not associative, so iterate the keys in a fixed order",
							types.ExprString(acc), types.TypeString(t, types.RelativeTo(pass.Pkg)))
					}
					return true
				}
				pass.Reportf(rs.Pos(),
					"nondeterministic iteration over map %s: sort the keys first, or annotate //nocvet:orderfree <reason> if the body is order-insensitive",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
				return true
			})
		}
		return nil
	}
	return a
}

// floatAccumulator returns the first operand the loop body updates with
// `+=`, `-=`, `*=` or `/=` that has a floating-point or complex type and
// is a variable, or a field of one, declared outside the loop; nil when
// there is none.
func floatAccumulator(pass *Pass, rs *ast.RangeStmt) ast.Expr {
	var acc ast.Expr
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || acc != nil {
			return acc == nil
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		default:
			return true
		}
		lhs := as.Lhs[0]
		b, ok := pass.TypesInfo.TypeOf(lhs).Underlying().(*types.Basic)
		if !ok || b.Info()&(types.IsFloat|types.IsComplex) == 0 {
			return true
		}
		root := ast.Unparen(lhs)
		for sel, ok := root.(*ast.SelectorExpr); ok; sel, ok = root.(*ast.SelectorExpr) {
			root = ast.Unparen(sel.X)
		}
		id, ok := root.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.ObjectOf(id); obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()) {
			acc = lhs
		}
		return acc == nil
	})
	return acc
}
