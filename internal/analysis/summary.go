package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Interprocedural lock-set engine. A walk over one body at a time cannot
// see a contract violation hidden one call away — a helper that blocks,
// acquires a mutex, or emits an observer event — unless the helper carries
// a //tiermerge: annotation. The engine removes that blind spot: it
// computes, by fixpoint over the module-wide call graph, a Summary for
// every function body (which mutex classes it may acquire, whether it may
// block, whether it may emit observer events, what it still holds on
// exit), then walks every body once with the summaries in hand, checking
// each lock, channel operation and call site against the held set and the
// callee's inferred behavior. Annotations remain as checked
// documentation: the walk enforces them at call sites, and the engine
// reports contradictions between an annotation and the inferred summary.
//
// Abstraction choices:
//
//   - Mutexes are tracked per *class* — the declaring type plus field name
//     ("replica.BaseCluster.mu"), or the package-level/local variable —
//     not per instance. Two shards' mutexes share a class; the ascending-
//     index discipline is checked separately through index expressions.
//   - Facts are flow-insensitive within a body (a class counts as acquired
//     if any path locks it; as released if any path unlocks it, deferred
//     unlocks included). HeldOnExit = acquired − released, which models
//     the sorted-order helper (lockClusters) exactly and treats partially
//     releasing functions conservatively as releasing.
//   - Goroutine launches propagate nothing: the launched body holds none
//     of the caller's locks and is checked standalone.
//   - Function and method values (EdgeRef) and closures (EdgeInline)
//     propagate like calls: where they actually run is unknown, so their
//     effects are charged to the function that created them.

// Summary is the inferred interprocedural behavior of one function body.
type Summary struct {
	// MayBlock: the body (or anything it can call) can park the goroutine:
	// channel operations, select, time.Sleep, WaitGroup/Cond Wait, or a
	// //tiermerge:blocking callee.
	MayBlock  bool
	BlockWhat string   // the primitive ("channel send", "time.Sleep", ...)
	BlockVia  []string // call chain from this body to the primitive

	// Emits: the body (or anything it can call) can deliver an event to an
	// Observer interface. Functions annotated //tiermerge:buffered-events
	// are barriers: their emissions land in an in-section buffer flushed
	// after unlock, so they neither report nor propagate.
	Emits   bool
	EmitVia []string

	// Acquires maps every mutex class the body may lock (transitively) to
	// the call chain that reaches the Lock.
	Acquires map[string][]string
	// DirectAcquires are the classes this body locks itself.
	DirectAcquires map[string]bool
	// HeldOnExit are classes the body locks and never unlocks — the
	// sorted-order helper shape (lockClusters). Direct facts only.
	HeldOnExit []string
	// Releases are classes the body unlocks itself (deferred included).
	Releases map[string]bool
}

// Engine is the module-wide analysis state shared by every pass of one
// Run: the call graph, the per-body summaries, and the lock findings
// pre-computed per package.
type Engine struct {
	Graph     *CallGraph
	Summaries map[*FuncNode]*Summary

	ann      *Annotations
	findings []engFinding
	// goLaunched marks the literals started by a go statement: they run
	// with nothing held, unlike other literals, whose lock state is unknown.
	goLaunched map[*FuncNode]bool

	// lock-order graph: class -> class edges with the site that created
	// them, deduplicated to the first site seen (deterministic: nodes are
	// walked in package/position order).
	orderEdges map[string]map[string]orderEdge
}

// engFinding is one lock diagnostic, pre-computed during engine
// construction and emitted by lockheld's per-package pass.
type engFinding struct {
	pkgPath string
	pos     token.Pos
	msg     string
}

type orderEdge struct {
	from, to string
	pos      token.Pos
	pkgPath  string
	fset     *token.FileSet
}

// BuildEngine computes the call graph, the summary fixpoint and the
// interprocedural findings over every loaded package.
func BuildEngine(pkgs []*Package, ann *Annotations) *Engine {
	e := &Engine{
		Graph:      BuildCallGraph(pkgs),
		Summaries:  make(map[*FuncNode]*Summary),
		ann:        ann,
		goLaunched: make(map[*FuncNode]bool),
		orderEdges: make(map[string]map[string]orderEdge),
	}
	for _, n := range e.Graph.Nodes {
		e.Summaries[n] = e.directFacts(n)
		for _, edge := range n.Edges {
			if edge.Kind == EdgeGo && edge.Callee != nil && edge.Callee.Lit != nil {
				e.goLaunched[edge.Callee] = true
			}
		}
	}
	e.fixpoint()
	for _, n := range e.Graph.Nodes {
		e.checkNode(n)
	}
	e.findCycles()
	return e
}

// annOf returns the annotations of a node's declared function.
func (e *Engine) annOf(n *FuncNode) *Ann {
	if n == nil || n.Obj == nil {
		return &Ann{}
	}
	return e.ann.Func(n.Obj)
}

// ---- mutex classes ----

// classOf canonicalizes a mutex expression into its class plus the index
// expression selecting the instance (nil when unindexed). "b.mu" on a
// *BaseCluster receiver yields "tiermerge/internal/replica.BaseCluster.mu";
// "bs[i].mu" the same class with index expression i; a package-level var
// its qualified name; a local its name tagged with the declaration site
// (so unrelated locals never unify into one class).
func classOf(pkg *Package, e ast.Expr) (class string, index ast.Expr) {
	info := pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if named := namedOf(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				class = named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
		if class == "" {
			if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
				class = v.Pkg().Path() + "." + v.Name()
			}
		}
		if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
			index = idx.Index
		}
		return class, index
	case *ast.IndexExpr:
		base, _ := classOf(pkg, e.X)
		if base == "" {
			base = exprString(e.X)
		}
		if base != "" {
			class = base + "[]"
		}
		return class, e.Index
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name(), nil
			}
			return fmt.Sprintf("%s@%v", v.Name(), v.Pos()), nil
		}
	}
	return "", nil
}

// displayClass shortens a class for diagnostics: the import path keeps only
// its last segment ("replica.BaseCluster.mu").
func displayClass(class string) string {
	if i := strings.LastIndexByte(class, '/'); i >= 0 {
		return class[i+1:]
	}
	return class
}

// constIndex resolves an index expression to its constant int value.
func constIndex(pkg *Package, e ast.Expr) (int64, bool) {
	if e == nil {
		return 0, false
	}
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// ---- phase A: direct (intraprocedural, flow-insensitive) facts ----

// directFacts scans one body (excluding nested literals, which are their
// own nodes) for the primitives the fixpoint propagates.
func (e *Engine) directFacts(n *FuncNode) *Summary {
	s := &Summary{
		Acquires:       make(map[string][]string),
		DirectAcquires: make(map[string]bool),
		Releases:       make(map[string]bool),
	}
	an := e.annOf(n)
	if an.Blocking {
		s.MayBlock, s.BlockWhat = true, "annotated //tiermerge:blocking"
	}
	info := n.Pkg.Info
	block := func(what string) {
		if an.NonBlocking {
			return // asserted non-parking (buffered sends with capacity)
		}
		if !s.MayBlock {
			s.MayBlock, s.BlockWhat = true, what
		}
	}
	var scan func(root ast.Node)
	scan = func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncLit:
				return x == n.Lit // nested literal bodies are separate nodes
			case *ast.GoStmt:
				// The launched call runs elsewhere; only its arguments are
				// evaluated here.
				for _, a := range x.Call.Args {
					scan(a)
				}
				return false
			case *ast.SendStmt:
				block("channel send")
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					block("channel receive")
				}
			case *ast.SelectStmt:
				block("select")
			case *ast.RangeStmt:
				if t := info.Types[x.X].Type; t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						block("range over channel")
					}
				}
			case *ast.CallExpr:
				if _, locks, ok := mutexOp(info, x); ok {
					sel := ast.Unparen(x.Fun).(*ast.SelectorExpr)
					class, _ := classOf(n.Pkg, sel.X)
					if class != "" {
						if locks {
							s.DirectAcquires[class] = true
							if _, seen := s.Acquires[class]; !seen {
								s.Acquires[class] = nil
							}
						} else {
							s.Releases[class] = true
						}
					}
					return false
				}
				if f := calleeOf(info, x); f != nil {
					if isKnownBlocking(f) {
						block(f.Pkg().Name() + "." + f.Name())
					}
					if isObserveCall(f) && !an.BufferedEvents {
						s.Emits = true
					}
				}
			}
			return true
		})
	}
	scan(n.Body())
	for class := range s.DirectAcquires {
		if !s.Releases[class] {
			s.HeldOnExit = append(s.HeldOnExit, class)
		}
	}
	sort.Strings(s.HeldOnExit)
	return s
}

// isObserveCall reports whether f is the Observe method of an Observer
// interface — the event-delivery point of the observability layer. Only
// interface dispatch counts: concrete buffering sinks (eventBuffer) are
// deliberately callable under a mutex.
func isObserveCall(f *types.Func) bool {
	if f.Name() != "Observe" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := types.Unalias(sig.Recv().Type())
	if !types.IsInterface(t) {
		return false
	}
	if named := namedOf(t); named != nil {
		return named.Obj().Name() == "Observer"
	}
	return true // a bare interface carrying Observe
}

// ---- phase B: fixpoint propagation ----

// fixpoint propagates MayBlock/Emits/Acquires along call, ref and inline
// edges (never go edges) until nothing changes.
func (e *Engine) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, n := range e.Graph.Nodes {
			s := e.Summaries[n]
			an := e.annOf(n)
			buffered := an.BufferedEvents
			for _, edge := range n.Edges {
				if edge.Kind == EdgeGo || edge.Callee == nil {
					continue
				}
				cs := e.Summaries[edge.Callee]
				name := edge.Callee.Name()
				if cs.MayBlock && !s.MayBlock && !an.NonBlocking {
					s.MayBlock = true
					s.BlockWhat = cs.BlockWhat
					s.BlockVia = append([]string{name}, cs.BlockVia...)
					changed = true
				}
				if cs.Emits && !s.Emits && !buffered {
					s.Emits = true
					s.EmitVia = append([]string{name}, cs.EmitVia...)
					changed = true
				}
				for _, class := range sortedKeys(cs.Acquires) {
					if _, ok := s.Acquires[class]; !ok {
						s.Acquires[class] = append([]string{name}, cs.Acquires[class]...)
						changed = true
					}
				}
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// via renders a call chain ("a → b → channel send").
func via(chain []string, terminal string) string {
	if len(chain) == 0 {
		return terminal
	}
	return strings.Join(chain, " → ") + " → " + terminal
}

// ---- phase C: the lock-state walk over every body ----

// heldLock is one mutex held during the check walk.
type heldLock struct {
	key    string   // rendered source expression, or a synthetic key
	class  string   // canonical class ("" for the caller contract)
	index  ast.Expr // instance-selecting index expression, may be nil
	idxPkg *Package // package the index expression was typed in
	caller bool     // the locks(cluster|shard) caller contract
	via    string   // the callee that left it held ("" when locked here)
	io     bool     // field annotated //tiermerge:iomutex
}

// name renders the lock for a diagnostic.
func (h heldLock) name() string {
	if h.caller {
		return "the caller-held mutex"
	}
	return h.key
}

type heldLocks []heldLock

func (h heldLocks) clone() heldLocks {
	c := make(heldLocks, len(h))
	copy(c, h)
	return c
}

func (h heldLocks) any() bool { return len(h) > 0 }

// ioOnly reports whether at least one lock is held and every held one is
// an annotated io-mutex: blocking I/O under such a mutex is its charter.
func (h heldLocks) ioOnly() bool {
	for _, l := range h {
		if !l.io {
			return false
		}
	}
	return len(h) > 0
}

// desc names one held mutex for a diagnostic, preferring a local one.
func (h heldLocks) desc() string {
	for _, l := range h {
		if !l.caller {
			return " (" + l.key + ")"
		}
	}
	if len(h) > 0 {
		return " (caller-held mutex)"
	}
	return ""
}

// loopFrame tracks one enclosing for statement and the variables its post
// statement decrements — the descending-iteration signal.
type loopFrame struct{ descVars map[string]bool }

// checkWalker walks one body linearly: branch bodies work on clones of the
// held set, so a branch that unlocks and returns does not leak its state;
// deferred statements are skipped, so a deferred Unlock keeps its mutex
// held to the end; literals are nodes of their own. Every lock finding of
// the suite comes from this walk.
type checkWalker struct {
	eng   *Engine
	node  *FuncNode
	an    *Ann // the walked body's own annotations
	loops []loopFrame
}

// checkNode runs the phase-C walk over one body.
func (e *Engine) checkNode(n *FuncNode) {
	w := &checkWalker{eng: e, node: n, an: e.annOf(n)}
	var held heldLocks
	switch w.an.Locks {
	case "cluster", "shard":
		held = append(held, heldLock{key: "<caller>", caller: true})
	}
	w.block(n.Body().List, &held)
	e.checkAnnotationAssertions(n)
}

// checkAnnotationAssertions verifies annotations against the inferred
// summary: a locks(cluster|shard) function runs inside a critical section,
// so its transitive behavior must not block or emit events.
func (e *Engine) checkAnnotationAssertions(n *FuncNode) {
	an := e.annOf(n)
	if an.Locks != "cluster" && an.Locks != "shard" {
		return
	}
	s := e.Summaries[n]
	pos := n.Body().Pos()
	if n.Decl != nil {
		pos = n.Decl.Name.Pos()
	}
	if s.MayBlock {
		e.report(n, pos,
			"%s is //tiermerge:locks(%s) (runs under a held mutex) but may block: %s",
			n.Name(), an.Locks, via(s.BlockVia, s.BlockWhat))
	}
	if s.Emits && !an.BufferedEvents {
		e.report(n, pos,
			"%s is //tiermerge:locks(%s) (runs under a held mutex) but may emit observer events: %s; "+
				"emit after unlocking, or buffer through an eventBuffer and annotate //tiermerge:buffered-events",
			n.Name(), an.Locks, via(s.EmitVia, "Observer.Observe"))
	}
}

func (e *Engine) report(n *FuncNode, pos token.Pos, format string, args ...any) {
	e.findings = append(e.findings, engFinding{pkgPath: n.Pkg.Path, pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (w *checkWalker) block(stmts []ast.Stmt, held *heldLocks) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

// branch walks stmts on a copy of the held set.
func (w *checkWalker) branch(stmts []ast.Stmt, held *heldLocks) {
	h := held.clone()
	w.block(stmts, &h)
}

func (w *checkWalker) stmt(s ast.Stmt, held *heldLocks) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if key, locks, ok := mutexOp(w.node.Pkg.Info, call); ok {
				sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				class, index := classOf(w.node.Pkg, sel.X)
				if locks {
					w.acquire(s.Pos(), key, class, index, fieldAnnOf(w.eng.ann, w.node.Pkg.Info, sel.X), held)
				} else {
					w.release(key, class, held)
				}
				return
			}
		}
		w.expr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the mutex held to the end, which the walk
		// models by not clearing it; other deferred calls run at an
		// indeterminate lock state.
		return
	case *ast.SendStmt:
		w.chanOp(s.Pos(), "channel send", *held)
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.SelectStmt:
		w.chanOp(s.Pos(), "select", *held)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				w.branch(cc.Body, held)
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.branch(s.Body.List, held)
		if s.Else != nil {
			h := held.clone()
			w.stmt(s.Else, &h)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		w.loops = append(w.loops, loopFrame{descVars: descendingVars(s)})
		w.branch(s.Body.List, held)
		w.loops = w.loops[:len(w.loops)-1]
	case *ast.RangeStmt:
		if t := w.node.Pkg.Info.Types[s.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.chanOp(s.Pos(), "range over a channel", *held)
			}
		}
		w.expr(s.X, held)
		w.loops = append(w.loops, loopFrame{})
		w.branch(s.Body.List, held)
		w.loops = w.loops[:len(w.loops)-1]
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.branch(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				w.branch(cc.Body, held)
			}
		}
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.GoStmt:
		// The launched body is its own node, checked with no locks held.
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	}
}

// chanOp reports a channel operation made while a mutex is held: it can
// wait on a goroutine that waits on the mutex. An io-mutex does not excuse
// it — a channel wait can cycle back to the mutex, file I/O cannot.
func (w *checkWalker) chanOp(pos token.Pos, what string, held heldLocks) {
	if held.any() {
		w.eng.report(w.node, pos, "%s while a mutex is held%s", what, held.desc())
	}
}

// descendingVars extracts the variables a for statement's post decrements.
func descendingVars(s *ast.ForStmt) map[string]bool {
	vars := make(map[string]bool)
	switch post := s.Post.(type) {
	case *ast.IncDecStmt:
		if post.Tok == token.DEC {
			if id, ok := ast.Unparen(post.X).(*ast.Ident); ok {
				vars[id.Name] = true
			}
		}
	case *ast.AssignStmt:
		if post.Tok == token.SUB_ASSIGN && len(post.Lhs) == 1 {
			if id, ok := ast.Unparen(post.Lhs[0]).(*ast.Ident); ok {
				vars[id.Name] = true
			}
		}
	}
	return vars
}

// acquire handles one Lock/RLock site.
func (w *checkWalker) acquire(pos token.Pos, key, class string, index ast.Expr, fa *Ann, held *heldLocks) {
	e, n := w.eng, w.node
	for _, h := range *held {
		if !h.caller && h.key == key {
			// sync mutexes are not reentrant.
			e.report(n, pos, "second Lock of %s while it is already held: sync mutexes are not reentrant — self-deadlock", key)
		}
	}
	// A leaf mutex guards memory only and never waits on anything, so
	// acquiring it nested cannot close a cycle. Any other nesting must go
	// through the ascending-order helper, whose loop locks one key per pass.
	if !fa.LeafMutex {
		for _, h := range *held {
			if h.key != key {
				e.report(n, pos,
					"lock of %s while %s is already held: nested distinct mutexes deadlock; "+
						"acquire multiple shard mutexes through the ascending-order helper (lockClusters)",
					key, h.name())
				break
			}
		}
	}
	// Ascending-index discipline: same class, both instance indices
	// constant, acquired out of order.
	if class != "" && index != nil {
		if ni, ok := constIndex(n.Pkg, index); ok {
			for _, h := range *held {
				if h.class != class || h.index == nil {
					continue
				}
				if hi, ok := constIndex(h.idxPkg, h.index); ok && ni <= hi {
					e.report(n, pos,
						"acquires %s[%d] while %s[%d] is held: same-class mutexes must be acquired in strictly ascending index order",
						displayClass(class), ni, displayClass(h.class), hi)
				}
			}
		}
		// Descending-loop acquisition: locking an indexed mutex inside a
		// loop that counts its index variable down acquires the class in
		// descending order — the deadlock mirror image of lockClusters.
		if loopVar := w.descLoopVarIn(index); loopVar != "" {
			e.report(n, pos,
				"acquires %s inside a loop that decrements %s: same-class mutexes must be acquired in ascending index order "+
					"(use an ascending loop like lockClusters)", displayClass(class), loopVar)
		}
	}
	// Lock-order graph edge: every held class precedes the new one.
	for _, h := range *held {
		if h.class != "" && class != "" && h.class != class {
			e.addOrderEdge(n, h.class, class, pos)
		}
	}
	*held = append(*held, heldLock{key: key, class: class, index: index, idxPkg: n.Pkg, io: fa.IOMutex})
}

// descLoopVarIn returns the name of an enclosing descending loop's counter
// appearing in the index expression, or "".
func (w *checkWalker) descLoopVarIn(index ast.Expr) string {
	var names []string
	ast.Inspect(index, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			names = append(names, id.Name)
		}
		return true
	})
	for _, frame := range w.loops {
		for _, name := range names {
			if frame.descVars[name] {
				return name
			}
		}
	}
	return ""
}

func (w *checkWalker) release(key, class string, held *heldLocks) {
	out := (*held)[:0]
	for _, h := range *held {
		if h.key == key || (h.via != "" && class != "" && h.class == class) {
			continue
		}
		out = append(out, h)
	}
	*held = out
}

// releaseClass removes synthetic and direct holds of a class (what a net
// releaser like unlockClusters drops).
func (w *checkWalker) releaseClass(class string, held *heldLocks) {
	out := (*held)[:0]
	for _, h := range *held {
		if h.class == class {
			continue
		}
		out = append(out, h)
	}
	*held = out
}

// expr checks the channel receives and calls inside one expression at the
// current lock state.
func (w *checkWalker) expr(e ast.Expr, held *heldLocks) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // its own node
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.chanOp(x.Pos(), "channel receive", *held)
			}
		case *ast.CallExpr:
			if _, _, ok := mutexOp(w.node.Pkg.Info, x); ok {
				// Lock/Unlock in expression position (rare) is handled
				// only in statement position.
				return true
			}
			w.call(x, held)
		}
		return true
	})
}

// call checks one call site against the callee's contract and summary,
// then applies the callee's net effect on the held set.
func (w *checkWalker) call(call *ast.CallExpr, held *heldLocks) {
	e, n := w.eng, w.node
	f := calleeOf(n.Pkg.Info, call)
	if f == nil {
		return
	}
	an := e.ann.Func(f)
	callee := e.Graph.NodeOf(f)
	var s *Summary
	if callee != nil {
		s = e.Summaries[callee]
	}
	if !held.any() {
		// A literal's lock state is unknown unless a go statement started
		// it (then nothing is held).
		if an.Locks == "cluster" && (n.Lit == nil || e.goLaunched[n]) {
			e.report(n, call.Pos(),
				"%s is //tiermerge:locks(cluster) (requires the cluster mutex) but no mutex is held at this call", f.Name())
		}
	} else {
		w.callUnderLock(call, f, an, callee, s, *held)
	}
	if s == nil {
		return
	}
	// Net effect on the held set: a net releaser (unlockClusters) drops
	// its classes; a net acquirer (lockClusters) leaves its classes held.
	for class := range s.Releases {
		if !s.DirectAcquires[class] {
			w.releaseClass(class, held)
		}
	}
	for _, class := range s.HeldOnExit {
		*held = append(*held, heldLock{key: "<" + callee.Name() + ">", class: class, via: callee.Name()})
	}
}

// callUnderLock applies the rules for a call made while a mutex is held.
// callee and s are nil for a function with no source-loaded body.
func (w *checkWalker) callUnderLock(call *ast.CallExpr, f *types.Func, an *Ann, callee *FuncNode, s *Summary, held heldLocks) {
	e, n := w.eng, w.node
	if isObserveCall(f) && !w.an.BufferedEvents {
		e.report(n, call.Pos(),
			"observer event emitted while a mutex is held: Observe runs arbitrary user code; "+
				"emit after unlocking or buffer through an eventBuffer (//tiermerge:buffered-events)")
	}
	name := f.Name()
	if callee != nil {
		name = callee.Name()
	} else if f.Pkg() != nil {
		name = f.Pkg().Name() + "." + f.Name()
	}
	switch {
	case an.Locks == "none":
		e.report(n, call.Pos(),
			"%s is //tiermerge:locks(none) (acquires the cluster lock itself) but is called while a mutex is held%s",
			f.Name(), held.desc())
	case held.ioOnly():
		// Blocking I/O under an io-mutex alone is the mutex's charter.
	case isKnownBlocking(f):
		e.report(n, call.Pos(), "call to %s while a mutex is held%s: may block (standard library)", name, held.desc())
	case s != nil && s.MayBlock:
		e.report(n, call.Pos(), "call to %s while a mutex is held%s: may block (%s)",
			name, held.desc(), via(s.BlockVia, s.BlockWhat))
	}
	if s == nil {
		return
	}
	if s.Emits && !w.an.BufferedEvents && !an.BufferedEvents {
		e.report(n, call.Pos(),
			"call to %s while a mutex is held%s: may emit observer events (%s); "+
				"emit after unlocking, or buffer and flush post-unlock",
			name, held.desc(), via(s.EmitVia, "Observer.Observe"))
	}
	// Same-class reacquisition: the callee (or something it calls) locks a
	// class already held here — self-deadlock, inferred even with no
	// annotation anywhere on the chain. A locks(none) or blocking callee is
	// already reported above at every call under a mutex.
	if an.Locks != "none" && !an.Blocking {
		for _, class := range sortedKeys(s.Acquires) {
			for _, h := range held {
				if h.class == class && h.class != "" {
					e.report(n, call.Pos(),
						"call to %s while %s is held: %s acquires %s (%s) — self-deadlock",
						name, h.key, name, displayClass(class), via(s.Acquires[class], "Lock"))
				}
			}
		}
	}
	// Order edges through the call: held classes precede everything the
	// callee acquires.
	for _, class := range sortedKeys(s.Acquires) {
		for _, h := range held {
			if h.class != "" && h.class != class {
				e.addOrderEdge(n, h.class, class, call.Pos())
			}
		}
	}
}

// ---- lock-order cycle detection ----

// addOrderEdge records "from is held while to is acquired", keeping the
// first site per class pair.
func (e *Engine) addOrderEdge(n *FuncNode, from, to string, pos token.Pos) {
	m := e.orderEdges[from]
	if m == nil {
		m = make(map[string]orderEdge)
		e.orderEdges[from] = m
	}
	if _, ok := m[to]; !ok {
		m[to] = orderEdge{from: from, to: to, pos: pos, pkgPath: n.Pkg.Path, fset: n.Pkg.Fset}
	}
}

// findCycles reports every cycle in the derived lock-order graph: a cycle
// means two code paths can acquire the same classes in opposite orders —
// a potential deadlock even if no single run trips it.
func (e *Engine) findCycles() {
	// color: 0 unvisited, 1 on stack, 2 done.
	color := make(map[string]int)
	var stack []string
	var dfs func(string)
	reported := make(map[string]bool)
	dfs = func(c string) {
		color[c] = 1
		stack = append(stack, c)
		for _, to := range sortedKeys(e.orderEdges[c]) {
			switch color[to] {
			case 0:
				dfs(to)
			case 1:
				// Found a cycle: stack from `to` onward, back to `to`.
				start := 0
				for i, s := range stack {
					if s == to {
						start = i
						break
					}
				}
				cycle := append(append([]string{}, stack[start:]...), to)
				e.reportCycle(cycle, reported)
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = 2
	}
	for _, c := range sortedKeys(e.orderEdges) {
		if color[c] == 0 {
			dfs(c)
		}
	}
}

// reportCycle emits one diagnostic per cycle, anchored at each involved
// edge's site (so the report lands in a package the user is linting, and
// every leg of the cycle is visible in context).
func (e *Engine) reportCycle(cycle []string, reported map[string]bool) {
	// Canonical key: rotate so the smallest class leads.
	names := cycle[:len(cycle)-1]
	min := 0
	for i, c := range names {
		if c < names[min] {
			min = i
		}
	}
	canon := append(append([]string{}, names[min:]...), names[:min]...)
	key := strings.Join(canon, "→")
	if reported[key] {
		return
	}
	reported[key] = true

	short := make([]string, len(cycle))
	var legs []string
	for i, c := range cycle {
		short[i] = displayClass(c)
		if i+1 < len(cycle) {
			edge := e.orderEdges[c][cycle[i+1]]
			legs = append(legs, fmt.Sprintf("%s → %s at %s",
				displayClass(c), displayClass(cycle[i+1]), positionOf(edge)))
		}
	}
	msg := fmt.Sprintf("lock-order cycle (potential deadlock): %s; legs: %s",
		strings.Join(short, " → "), strings.Join(legs, "; "))
	for i := 0; i+1 < len(cycle); i++ {
		edge := e.orderEdges[cycle[i]][cycle[i+1]]
		e.findings = append(e.findings, engFinding{pkgPath: edge.pkgPath, pos: edge.pos, msg: msg})
	}
}

func positionOf(edge orderEdge) string {
	p := edge.fset.Position(edge.pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// emitFindings reports the engine findings for the pass's package.
func (e *Engine) emitFindings(pass *Pass) {
	for _, f := range e.findings {
		if f.pkgPath == pass.Pkg.Path {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
}
