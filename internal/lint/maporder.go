package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags range-over-map loops in simulation packages whose bodies
// are sensitive to iteration order: drawing from an rng stream, posting or
// scheduling events, appending to a slice that outlives the loop, or
// calling through a func-typed field, variable or parameter. This is
// exactly the bug class of the PR 1 seed-determinism fix (map-order
// handoff): Go randomizes map iteration, so any of those bodies makes the
// run a function of the hash seed instead of the trial seed. The dynamic
// call is the shape PR 17 closed: gossipfd's sweep ranged over its entry
// map and called cfg.OnSuspect(n), so same-tick SUSPECT trace lines came
// out in map order — the callee is unknown here, so it must be assumed to
// observe the order it is called in.
//
// The sanctioned fix — collect the keys, sort, then iterate — is
// recognized automatically: an order-sensitive append is not flagged when
// a later statement in the same block sorts the destination slice.
// Deliberately order-insensitive sites can carry
// `//lint:allow maporder -- reason`.
var MapOrder = &Analyzer{
	Name: "maporder",
	Run:  runMapOrder,
}

// eventPostMethods are scheduling/sending entry points: calling one inside
// a map-order loop injects events in randomized order. Each is a method
// declared in one of eventPostPackages (TestEventPostMethodsExist): the
// engines' After/At/Post/PostN/PostFrom, the timers' Arm/ArmAfter, the
// network's Unicast/Multicast and the queue's PushKeyed/PushN.
var eventPostMethods = map[string]bool{
	"After":     true,
	"At":        true,
	"Post":      true,
	"PostN":     true,
	"PostFrom":  true,
	"Arm":       true,
	"ArmAfter":  true,
	"Unicast":   true,
	"Multicast": true,
	"PushKeyed": true,
	"PushN":     true,
}

// eventPostPackages are the packages whose methods count as event posting.
var eventPostPackages = map[string]bool{
	"sim":    true,
	"clock":  true,
	"eventq": true,
	"netsim": true,
}

func runMapOrder(pass *Pass) error {
	if !inSimSet(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var stmts []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				stmts = b.List
			case *ast.CaseClause:
				stmts = b.Body
			case *ast.CommClause:
				stmts = b.Body
			default:
				return true
			}
			for i, stmt := range stmts {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if t := pass.TypesInfo.TypeOf(rs.X); t == nil {
					continue
				} else if _, isMap := t.Underlying().(*types.Map); !isMap {
					continue
				}
				checkMapRange(pass, rs, stmts[i+1:])
			}
			return true
		})
	}
	return nil
}

// checkMapRange inspects one range-over-map body for order-sensitive
// operations. rest is the tail of the enclosing statement list, consulted
// for the collect-then-sort pattern.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			f := pkgFunc(pass.TypesInfo, node)
			if f == nil {
				checkDynamicCall(pass, node, rs)
				return true
			}
			if isRNGSourceMethod(f) && f.Name() != "Split" && f.Name() != "SplitInto" {
				pass.Reportf(node.Pos(),
					"rng draw (%s) inside range over map: iteration order leaks into the stream; iterate sorted keys (or annotate `//lint:allow maporder -- reason`)",
					f.Name())
			}
			if eventPostMethods[f.Name()] && eventPostPackages[funcPkgTail(f)] && f.Signature().Recv() != nil {
				pass.Reportf(node.Pos(),
					"event posting (%s.%s) inside range over map: events enqueue in randomized order; iterate sorted keys (or annotate `//lint:allow maporder -- reason`)",
					funcPkgTail(f), f.Name())
			}
		case *ast.AssignStmt:
			checkEscapingAppend(pass, node, rs, rest)
		}
		return true
	})
}

// checkDynamicCall flags a call whose callee is a func-typed variable —
// a struct field (callback hooks), a parameter or a local — unless the
// variable is declared inside the loop body, where what it holds is
// visible to the other checks.
func checkDynamicCall(pass *Pass, call *ast.CallExpr, rs *ast.RangeStmt) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); !isFunc {
		return
	}
	if v.Pos() >= rs.Body.Pos() && v.Pos() < rs.Body.End() {
		return
	}
	pass.Reportf(call.Pos(),
		"dynamic call (%s) inside range over map: the callee runs in randomized order and may record, draw or post; iterate sorted keys (or annotate `//lint:allow maporder -- reason`)",
		id.Name)
}

// checkEscapingAppend flags `x = append(x, ...)` inside the loop when x is
// declared outside it and no later statement in the enclosing block sorts
// x.
func checkEscapingAppend(pass *Pass, assign *ast.AssignStmt, rs *ast.RangeStmt, rest []ast.Stmt) {
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(assign.Lhs) <= i {
			continue
		}
		if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
			continue
		} else if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
			continue
		}
		lhs, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Defs[lhs]
		}
		// Declared inside the loop body: the slice dies with the
		// iteration, so its internal order cannot escape.
		if obj == nil || (obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()) {
			continue
		}
		if sortedAfter(pass, obj, rest) {
			continue
		}
		pass.Reportf(assign.Pos(),
			"append to %s (declared outside the loop) inside range over map: element order is randomized; collect and sort keys first (or annotate `//lint:allow maporder -- reason`)",
			lhs.Name)
	}
}

// sortedAfter reports whether any statement in rest passes obj to a
// sort/slices sorting function — the collect-then-sort idiom.
func sortedAfter(pass *Pass, obj types.Object, rest []ast.Stmt) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := pkgFunc(pass.TypesInfo, call)
			if f == nil {
				return true
			}
			if tail := funcPkgTail(f); tail != "sort" && tail != "slices" {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
