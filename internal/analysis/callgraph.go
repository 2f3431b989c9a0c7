package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Module-wide call graph. The interprocedural engine (summary.go) needs to
// know, for every function body the loader saw, which other bodies it can
// transfer control to — including the forms the per-function analyzers
// historically ignored: method values passed around as callbacks, function
// literals (closures), deferred calls and goroutine launch sites. Each of
// those is an edge with a kind, because they propagate differently: a
// goroutine body runs on another goroutine and inherits none of the
// caller's locks, while a deferred call or an immediately-reachable
// closure runs within the caller's dynamic extent.

// EdgeKind classifies how control can reach the callee.
type EdgeKind int

const (
	// EdgeCall is a plain (or deferred) call expression.
	EdgeCall EdgeKind = iota
	// EdgeRef is a function or method value taken without being called at
	// that site (stored in a field, passed as a callback). The engine
	// treats it as a potential call from the enclosing function: where the
	// value actually runs is unknown, so its effects are charged to the
	// function that created the reference.
	EdgeRef
	// EdgeGo is a goroutine launch: the callee runs concurrently, holding
	// none of the caller's locks, so no summary facts propagate along it.
	EdgeGo
	// EdgeInline links a function to a literal declared in its body (that
	// is not directly go-launched). The literal may run at any point in
	// the enclosing function's extent — or escape entirely — so its
	// effects propagate to the encloser, conservatively.
	EdgeInline
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeRef:
		return "ref"
	case EdgeGo:
		return "go"
	case EdgeInline:
		return "inline"
	}
	return "?"
}

// FuncNode is one analyzable function body: a declared function or method,
// or a function literal.
type FuncNode struct {
	// Obj is the declared function's object; nil for literals.
	Obj *types.Func
	// Decl is the declaration carrying Body; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Pkg is the package the body lives in.
	Pkg *Package
	// Edges are the outgoing call edges, in source order.
	Edges []CallEdge
}

// CallEdge is one outgoing edge of the call graph.
type CallEdge struct {
	Kind   EdgeKind
	Callee *FuncNode
	Pos    token.Pos
}

// Name renders a short human identity ("(*clusterSet).admit",
// "lockClusters", "func literal shard.go:42") for diagnostics.
func (n *FuncNode) Name() string {
	if n.Obj != nil {
		if sig, ok := n.Obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := namedOf(sig.Recv().Type()); named != nil {
				star := ""
				if _, isPtr := types.Unalias(sig.Recv().Type()).(*types.Pointer); isPtr {
					star = "*"
				}
				return fmt.Sprintf("(%s%s).%s", star, named.Obj().Name(), n.Obj.Name())
			}
		}
		return n.Obj.Name()
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	return fmt.Sprintf("func literal %s:%d", filepath.Base(pos.Filename), pos.Line)
}

// Body returns the node's function body.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// CallGraph holds every function body of the loaded packages and the
// edges between them.
type CallGraph struct {
	// Nodes in deterministic order: packages by path, bodies by position.
	Nodes []*FuncNode
	// byObj resolves a declared function's object (its generic origin for
	// instantiated generics) to its node.
	byObj map[*types.Func]*FuncNode
	// byLit resolves a literal to its node.
	byLit map[*ast.FuncLit]*FuncNode
}

// NodeOf returns the node of a declared function (nil when the function
// has no source-loaded body — standard library, interface methods).
func (g *CallGraph) NodeOf(f *types.Func) *FuncNode {
	if f == nil {
		return nil
	}
	return g.byObj[f.Origin()]
}

// BuildCallGraph constructs the module-wide call graph over every loaded
// package.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
	}
	// Pass 1: register every body so cross-package edges resolve.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := &FuncNode{Decl: fd, Pkg: pkg}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					n.Obj = obj
					g.byObj[obj.Origin()] = n
				}
				g.Nodes = append(g.Nodes, n)
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					if lit, ok := x.(*ast.FuncLit); ok {
						ln := &FuncNode{Lit: lit, Pkg: pkg}
						g.byLit[lit] = ln
						g.Nodes = append(g.Nodes, ln)
					}
					return true
				})
			}
		}
	}
	// Pass 2: edges.
	for _, n := range g.Nodes {
		g.collectEdges(n)
	}
	return g
}

// collectEdges records n's outgoing edges. Only the body region owned by n
// itself is scanned: statements inside nested literals belong to the
// literal's node (reached through an EdgeInline or EdgeGo edge).
func (g *CallGraph) collectEdges(n *FuncNode) {
	info := n.Pkg.Info
	// callFuns marks identifiers appearing in call position, so pass 2's
	// reference scan does not double-count a call as a method value.
	callFuns := make(map[ast.Node]bool)

	var scan func(root ast.Node)
	scan = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				if x == n.Lit {
					return true // the root literal's own body
				}
				kind := EdgeInline
				n.Edges = append(n.Edges, CallEdge{Kind: kind, Callee: g.byLit[x], Pos: x.Pos()})
				return false // nested statements belong to the literal node
			case *ast.GoStmt:
				// Launch site: the launched callee gets an EdgeGo; its
				// arguments are evaluated here and scanned normally.
				switch fn := ast.Unparen(x.Call.Fun).(type) {
				case *ast.FuncLit:
					n.Edges = append(n.Edges, CallEdge{Kind: EdgeGo, Callee: g.byLit[fn], Pos: x.Pos()})
					markCallFun(callFuns, fn)
				default:
					if f := calleeOf(info, x.Call); f != nil {
						n.Edges = append(n.Edges, CallEdge{Kind: EdgeGo, Callee: g.NodeOf(f), Pos: x.Pos()})
					}
					markCallFun(callFuns, x.Call.Fun)
				}
				for _, a := range x.Call.Args {
					scan(a)
				}
				return false
			case *ast.CallExpr:
				markCallFun(callFuns, x.Fun)
				if fl, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
					// Immediately-invoked literal: a plain call edge.
					n.Edges = append(n.Edges, CallEdge{Kind: EdgeCall, Callee: g.byLit[fl], Pos: x.Pos()})
					for _, a := range x.Args {
						scan(a)
					}
					return false
				}
				if f := calleeOf(info, x); f != nil {
					n.Edges = append(n.Edges, CallEdge{Kind: EdgeCall, Callee: g.NodeOf(f), Pos: x.Pos()})
				}
				return true
			case *ast.Ident:
				if callFuns[x] {
					return true
				}
				if f := funcUsed(info, x); f != nil {
					// A function value taken without calling it.
					n.Edges = append(n.Edges, CallEdge{Kind: EdgeRef, Callee: g.NodeOf(f), Pos: x.Pos()})
				}
				return true
			case *ast.SelectorExpr:
				if callFuns[x] {
					scan(x.X)
					return false
				}
				if f := funcUsed(info, x.Sel); f != nil {
					// Method value: b.propagate passed as a callback.
					n.Edges = append(n.Edges, CallEdge{Kind: EdgeRef, Callee: g.NodeOf(f), Pos: x.Pos()})
					scan(x.X)
					return false
				}
				return true
			}
			return true
		})
	}
	scan(n.Body())
}

// markCallFun marks the call-position expression (and the selector ident
// inside it) so the reference scan skips it.
func markCallFun(callFuns map[ast.Node]bool, fun ast.Expr) {
	fun = ast.Unparen(fun)
	callFuns[fun] = true
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		callFuns[sel.Sel] = true
	}
	if idx, ok := fun.(*ast.IndexExpr); ok {
		// Generic instantiation in call position: f[int](x).
		callFuns[ast.Unparen(idx.X)] = true
		if sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr); ok {
			callFuns[sel.Sel] = true
		}
	}
	if idx, ok := fun.(*ast.IndexListExpr); ok {
		callFuns[ast.Unparen(idx.X)] = true
		if sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr); ok {
			callFuns[sel.Sel] = true
		}
	}
}

// funcUsed resolves id to the (origin of the) function object it uses, or
// nil when it names something else.
func funcUsed(info *types.Info, id *ast.Ident) *types.Func {
	if f, ok := info.Uses[id].(*types.Func); ok {
		return f.Origin()
	}
	return nil
}
