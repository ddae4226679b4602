package lint

import (
	"go/ast"
	"go/types"
)

// TimerOwner keeps every protocol timer firing its owner: in core, rrmp,
// gossipfd, rmtp, stability and netsim a timer's clock.Firer is the owner
// itself, or a named pointer type per timer, so arming binds nothing. It
// flags a func() literal or method value stored in a struct field (a
// callback bound once and kept for re-arming) and any conversion of a
// func to a type with a Fire method, such as clock.Func (a closure armed
// in place of its owner). Drivers keep their func() callbacks.
var TimerOwner = &Analyzer{
	Name: "timerowner",
	Run:  runTimerOwner,
}

// timerOwnerPackages are the protocol packages, by import-path tail.
var timerOwnerPackages = map[string]bool{
	"core": true, "rrmp": true, "gossipfd": true, "rmtp": true, "stability": true, "netsim": true,
}

func runTimerOwner(pass *Pass) error {
	if !timerOwnerPackages[pathTail(pass.ImportPath)] {
		return nil
	}
	info := pass.TypesInfo
	field := func(key ast.Expr, value ast.Expr) {
		if v, ok := fieldOf(info, key).(*types.Var); ok && v.IsField() && boundFunc(info, value) {
			pass.Reportf(value.Pos(), "bound callback stored in field %s: make the timer's owner its clock.Firer (a named pointer type per timer) instead", v.Name())
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i := range min(len(n.Lhs), len(n.Rhs)) {
					field(n.Lhs[i], n.Rhs[i])
				}
			case *ast.KeyValueExpr:
				field(n.Key, n.Value)
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() && isFuncFirer(tv.Type) {
					pass.Reportf(n.Pos(), "closure converted to %s: arm the timer's owner, a clock.Firer, instead", types.TypeString(tv.Type, (*types.Package).Name))
				}
			}
			return true
		})
	}
	return nil
}

// fieldOf returns the object a store target or struct-literal key names.
func fieldOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return info.ObjectOf(e.Sel)
	case *ast.Ident:
		return info.ObjectOf(e)
	}
	return nil
}

// boundFunc reports whether e is a func literal or method value of type
// func().
func boundFunc(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s == nil || s.Kind() != types.MethodVal {
			return false
		}
	default:
		return false
	}
	sig, ok := info.TypeOf(e).(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// isFuncFirer reports whether t is a func type with a Fire method.
func isFuncFirer(t types.Type) bool {
	_, isFunc := t.Underlying().(*types.Signature)
	fire, _, _ := types.LookupFieldOrMethod(t, false, nil, "Fire")
	return isFunc && fire != nil
}
