package analysis

import (
	"go/ast"
	"go/types"
)

// SnapshotMut enforces the immutability contract the merge path rests on:
// the base-prefix view a merge prepares against (the windowPrefix index
// views, the prefixSnapshot struct) is shared data that Preview reads
// lock-free — writing through it corrupts concurrent merges and previews.
//
// Functions annotated //tiermerge:immutable declare that every value they
// return aliases such shared structure; types annotated
// //tiermerge:immutable declare their values frozen after construction.
// SnapshotMut taints, within each function, every local derived from an
// annotated call result or annotated-type value (through index, slice,
// selector, dereference and range) and reports element writes, field
// writes, deletes, appends and known mutating method calls (State.Set,
// State.Apply, ItemSet.Add) on tainted values.
var SnapshotMut = &Analyzer{
	Name: "snapshotmut",
	Doc: "flags writes through values obtained from //tiermerge:immutable " +
		"functions or of //tiermerge:immutable types (snapshot aliases are " +
		"shared and frozen)",
	Run: runSnapshotMut,
}

func runSnapshotMut(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The annotated accessor itself legitimately builds/extends the
			// structure it hands out.
			if pass.Ann.Func(pass.Pkg.Info.Defs[fd.Name]).Immutable {
				continue
			}
			sm := &snapshotChecker{pass: pass, tainted: make(map[types.Object]bool)}
			sm.propagate(fd.Body)
			sm.check(fd.Body)
		}
	}
	return nil
}

type snapshotChecker struct {
	pass    *Pass
	tainted map[types.Object]bool
}

// isTainted reports whether e denotes (an alias into) annotated shared
// structure.
func (sm *snapshotChecker) isTainted(e ast.Expr) bool {
	info := sm.pass.Pkg.Info
	e = ast.Unparen(e)
	// Type-based: values of //tiermerge:immutable types are frozen.
	if t := info.Types[e].Type; t != nil {
		if n := namedOf(t); n != nil && sm.pass.Ann.Type(n.Obj()).Immutable {
			return true
		}
	}
	switch e := e.(type) {
	case *ast.Ident:
		return sm.tainted[info.Uses[e]]
	case *ast.IndexExpr:
		return sm.isTainted(e.X)
	case *ast.SliceExpr:
		return sm.isTainted(e.X)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return sm.isTainted(e.X)
		}
	case *ast.StarExpr:
		return sm.isTainted(e.X)
	case *ast.TypeAssertExpr:
		return sm.isTainted(e.X)
	case *ast.CallExpr:
		if f := calleeOf(info, e); f != nil && sm.pass.Ann.Func(f).Immutable {
			return true
		}
	}
	return false
}

// propagate runs assignment/range taint propagation to a fixpoint so
// loop-carried aliases are found regardless of statement order.
func (sm *snapshotChecker) propagate(body *ast.BlockStmt) {
	info := sm.pass.Pkg.Info
	for i := 0; i < 8; i++ {
		changed := false
		mark := func(id *ast.Ident) {
			if id == nil || id.Name == "_" {
				return
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil && !sm.tainted[obj] {
				sm.tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
					// Multi-value: a tainted call taints every result.
					if sm.isTainted(n.Rhs[0]) {
						for _, lhs := range n.Lhs {
							if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
								mark(id)
							}
						}
					}
					return true
				}
				for i, lhs := range n.Lhs {
					if i < len(n.Rhs) && sm.isTainted(n.Rhs[i]) {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			case *ast.RangeStmt:
				if sm.isTainted(n.X) {
					if id, ok := ast.Unparen(n.Value).(*ast.Ident); n.Value != nil && ok {
						mark(id)
					}
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if sm.isTainted(v) && i < len(n.Names) {
						mark(n.Names[i])
					}
				}
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// check reports mutations through tainted expressions.
func (sm *snapshotChecker) check(body *ast.BlockStmt) {
	info := sm.pass.Pkg.Info
	report := func(n ast.Node, what string, root ast.Expr) {
		sm.pass.Reportf(n.Pos(),
			"%s through a snapshot alias (%s is //tiermerge:immutable shared data); "+
				"clone it or move the write into the admit critical section",
			what, describeExpr(root))
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch l := ast.Unparen(lhs).(type) {
				case *ast.IndexExpr:
					if sm.isTainted(l.X) {
						report(l, "element write", l.X)
					}
				case *ast.SelectorExpr:
					if sel, ok := info.Selections[l]; ok && sel.Kind() == types.FieldVal && sm.isTainted(l.X) {
						report(l, "field write", l.X)
					}
				case *ast.StarExpr:
					if sm.isTainted(l.X) {
						report(l, "pointer write", l.X)
					}
				}
			}
		case *ast.IncDecStmt:
			switch l := ast.Unparen(n.X).(type) {
			case *ast.IndexExpr:
				if sm.isTainted(l.X) {
					report(l, "element update", l.X)
				}
			case *ast.SelectorExpr:
				if sm.isTainted(l.X) {
					report(l, "field update", l.X)
				}
			}
		case *ast.CallExpr:
			if isBuiltin(info, n, "delete") && len(n.Args) > 0 && sm.isTainted(n.Args[0]) {
				report(n, "delete", n.Args[0])
				return true
			}
			if isBuiltin(info, n, "append") && len(n.Args) > 0 && sm.isTainted(n.Args[0]) {
				report(n, "append", n.Args[0])
				return true
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if isSharedMutator(info, sel) && sm.isTainted(sel.X) {
					report(n, "mutating method call "+sel.Sel.Name, sel.X)
				}
			}
		}
		return true
	})
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
