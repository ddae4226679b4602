package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// StreamLabel enforces the stream-derivation discipline from PRs 4 and 8:
// every rng.Source.Split / SplitInto inside the simulation packages must
// derive its child stream from a declared label constant — a name ending
// in StreamLabel (fixed stream), StreamBase (counter-hash family) or
// SubStream (per-entity child) — rather than a raw literal or ad-hoc seed
// arithmetic. Named labels make the stream tree greppable and guarantee
// that adding a consumer cannot collide with an existing stream by typo.
// Tests and internal/rng itself are exempt.
var StreamLabel = &Analyzer{
	Name: "streamlabel",
	Run:  runStreamLabel,
}

// labelSuffixes are the naming conventions that mark a declared stream
// label constant.
var labelSuffixes = []string{"StreamLabel", "StreamBase", "SubStream"}

func runStreamLabel(pass *Pass) error {
	if !inSimSet(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := pkgFunc(pass.TypesInfo, call)
			if f == nil || !isRNGSourceMethod(f) {
				return true
			}
			if f.Name() != "Split" && f.Name() != "SplitInto" {
				return true
			}
			if len(call.Args) == 0 || referencesLabelConst(pass.TypesInfo, call.Args[0]) {
				return true
			}
			pass.Reportf(call.Args[0].Pos(),
				"ad-hoc stream derivation: %s label must reference a declared constant ending in StreamLabel/StreamBase/SubStream (or annotate `//lint:allow streamlabel -- reason`)",
				f.Name())
			return true
		})
	}
	return nil
}

// referencesLabelConst reports whether expr mentions at least one declared
// constant following the stream-label naming convention. Counter offsets
// (label + uint64(i)) are legal as long as a named base anchors them.
func referencesLabelConst(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		if c, ok := info.Uses[id].(*types.Const); ok {
			for _, suffix := range labelSuffixes {
				if strings.HasSuffix(c.Name(), suffix) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
