package analysis

import (
	"go/ast"
	"go/types"
)

// ItemSetAlias enforces the aliasing discipline of the model containers:
// a model.ItemSet or model.State received from outside the function —
// through a parameter, a package-level variable, or a call annotated
// //tiermerge:shared, directly or through a local bound to one — aliases
// a shared structure (a transaction's compiled footprint, an effect's
// read-set view, a history's states) and must be Cloned before mutation. Rewriting
// correctness depends on it: fixes pin read values, and effects are
// compared by later acceptance checks, so mutating a set someone handed
// you rewrites history behind its owner's back.
//
// Receivers are deliberately exempt: a method mutating its own fields is
// the owner, and the container types' own mutators (ItemSet.Add,
// State.Set) are the sanctioned API.
var ItemSetAlias = &Analyzer{
	Name: "itemsetalias",
	Doc: "model.ItemSet/State values reaching a function through parameters, " +
		"globals or //tiermerge:shared calls must be Cloned before mutation",
	Run: runItemSetAlias,
}

func runItemSetAlias(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Ann.Func(pass.Pkg.Info.Defs[fd.Name]).Sink {
				continue // out-param filler: parameters are owned by contract
			}
			ia := newAliasChecker(pass, fd)
			ia.run(fd.Body)
		}
	}
	return nil
}

type aliasChecker struct {
	pass   *Pass
	params map[types.Object]bool // incoming parameters (not the receiver)
	fresh  map[types.Object]bool // locals proven freshly allocated
	alias  map[types.Object]bool // locals last bound to a shared value
}

func newAliasChecker(pass *Pass, fd *ast.FuncDecl) *aliasChecker {
	ia := &aliasChecker{
		pass:   pass,
		params: make(map[types.Object]bool),
		fresh:  make(map[types.Object]bool),
		alias:  make(map[types.Object]bool),
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Pkg.Info.Defs[name]; obj != nil {
					ia.params[obj] = true
				}
			}
		}
	}
	return ia
}

func (ia *aliasChecker) run(body *ast.BlockStmt) {
	info := ia.pass.Pkg.Info

	// Forward pass: record locals bound to freshly allocated values so
	// `s := eff.ReadSet.Clone(); s.Add(x)` stays clean, and locals whose
	// last binding in source order is a shared value so
	// `fp := t.Footprint(); fp.Add(x)` does not. Shared-ness below only
	// triggers on definitely-shared roots, so unknown locals are silently
	// trusted.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" || i >= len(as.Rhs) && len(as.Rhs) != 1 {
				continue
			}
			rhs := as.Rhs[0]
			if len(as.Rhs) == len(as.Lhs) {
				rhs = as.Rhs[i]
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if ia.isFreshExpr(rhs) {
				ia.fresh[obj] = true
				delete(ia.alias, obj)
			} else if ia.isShared(rhs) {
				delete(ia.fresh, obj)
				ia.alias[obj] = true
			}
		}
		return true
	})

	report := func(n ast.Node, what string, root ast.Expr) {
		ia.pass.Reportf(n.Pos(),
			"%s mutates a model container that aliases shared structure (%s); Clone it before mutating",
			what, describeExpr(root))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, n, "delete") && len(n.Args) > 0 &&
				isModelContainer(info.Types[n.Args[0]].Type) && ia.isShared(n.Args[0]) {
				report(n, "delete", n.Args[0])
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if ok && isSharedMutator(info, sel) && ia.isShared(sel.X) {
				report(n, sel.Sel.Name, sel.X)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if ok && isModelContainer(info.Types[ix.X].Type) && ia.isShared(ix.X) {
					report(ix, "element write", ix.X)
				}
			}
		}
		return true
	})
}

// isFreshExpr reports whether e definitely allocates: make, composite
// literals, and calls not annotated //tiermerge:shared (constructors,
// Clone, Union, ... all return fresh containers by convention).
func (ia *aliasChecker) isFreshExpr(e ast.Expr) bool {
	info := ia.pass.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, isLit := ast.Unparen(e.X).(*ast.CompositeLit)
		return isLit
	case *ast.CallExpr:
		if isBuiltin(info, e, "make") {
			return true
		}
		if f := calleeOf(info, e); f != nil {
			return !ia.pass.Ann.Func(f).Shared
		}
	}
	return false
}

// isShared reports whether e definitely aliases structure owned outside
// this function: rooted at a parameter, a package-level variable, or a
// //tiermerge:shared call.
func (ia *aliasChecker) isShared(e ast.Expr) bool {
	info := ia.pass.Pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return false
		}
		if ia.params[obj] || ia.alias[obj] {
			return true
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() == v.Pkg().Scope() {
			return true // package-level variable
		}
		return false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			// A field of a fresh local is fresh; a field of a shared value
			// is shared; anything else is unknown.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				obj := info.Uses[id]
				if obj != nil && ia.fresh[obj] {
					return false
				}
			}
			return ia.isShared(e.X)
		}
		return false
	case *ast.IndexExpr:
		return ia.isShared(e.X)
	case *ast.SliceExpr:
		return ia.isShared(e.X)
	case *ast.StarExpr:
		return ia.isShared(e.X)
	case *ast.CallExpr:
		if f := calleeOf(info, e); f != nil {
			return ia.pass.Ann.Func(f).Shared
		}
	}
	return false
}

// isModelContainer matches model.ItemSet and model.State.
func isModelContainer(t types.Type) bool {
	return typeIs(t, modelPath, "ItemSet") || typeIs(t, modelPath, "State")
}

// isSharedMutator matches the in-place mutators of the model containers.
func isSharedMutator(info *types.Info, sel *ast.SelectorExpr) bool {
	f, _ := info.Uses[sel.Sel].(*types.Func)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != modelPath {
		return false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	switch {
	case typeIs(sig.Recv().Type(), modelPath, "State"):
		return f.Name() == "Set" || f.Name() == "Apply"
	case typeIs(sig.Recv().Type(), modelPath, "ItemSet"):
		return f.Name() == "Add"
	}
	return false
}

func describeExpr(e ast.Expr) string {
	if s := exprString(e); s != "" {
		return s
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if s := exprString(e.Fun); s != "" {
			return s + "(...)"
		}
	case *ast.IndexExpr:
		return describeExpr(e.X) + "[...]"
	case *ast.SliceExpr:
		return describeExpr(e.X) + "[...]"
	}
	return "value"
}
