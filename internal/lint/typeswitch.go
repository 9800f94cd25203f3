package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// runTypeswitch enforces that every `switch` over message.Type either lists
// all declared constants of the type or carries a deliberate default clause.
// The message taxonomy routes everything — droppability, weights-class
// credits, drop accounting — so a new message class added to the enum must
// be a compile-visible decision at every classification site, not a silent
// fall-through into "not droppable" or "not weights".
//
// Matching is structural, like the rest of the suite: a named type `Type`
// declared in a package named "message". Case expressions are compared by
// constant value, so aliased constants count as covering their target.
func runTypeswitch(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := p.Info.Types[sw.Tag]
			if !ok {
				return true
			}
			named := derefNamed(tv.Type)
			if named == nil || !isNamedType(named, "message", "Type") {
				return true
			}
			checkTypeSwitch(p, sw, named)
			return true
		})
	}
}

// checkTypeSwitch verifies one switch over message.Type.
func checkTypeSwitch(p *Pass, sw *ast.SwitchStmt, named *types.Named) {
	consts := typeConstants(named)
	if len(consts) == 0 {
		return
	}
	covered := make(map[string]bool, len(consts))
	hasDefault := false
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			v, ok := p.Info.Types[e]
			if !ok || v.Value == nil {
				continue // non-constant case: treat as covering nothing provable
			}
			for _, tc := range consts {
				if constant.Compare(v.Value, token.EQL, tc.Val()) {
					covered[tc.Name()] = true
				}
			}
		}
	}
	if hasDefault {
		return // deliberate default: new classes funnel there visibly
	}
	var missing []string
	for _, tc := range consts {
		if !covered[tc.Name()] {
			missing = append(missing, tc.Name())
		}
	}
	if len(missing) == 0 {
		return
	}
	p.Reportf(sw.Pos(), "switch over message.Type is not exhaustive: missing %s; add the case(s) or a deliberate default",
		strings.Join(missing, ", "))
}

// typeConstants returns the constants of the named type declared in its
// package, in declaration (value) order.
func typeConstants(named *types.Named) []*types.Const {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return nil
	}
	var out []*types.Const
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok {
			continue
		}
		if types.Identical(c.Type(), named) {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return constant.Compare(out[i].Val(), token.LSS, out[j].Val())
	})
	return out
}
