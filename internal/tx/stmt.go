// Package tx implements the paper's transaction model: executable
// transaction profiles made of read statements, single-item update
// statements x := f(x, y1...yn) and if-then-else conditionals (the exact
// program shape assumed by Section 6), together with the execution engine
// that supports fixes (Definition 1), effect logging (read/write sets,
// before/after images) and compensating-transaction synthesis (Section 6.1).
package tx

import (
	"fmt"
	"strings"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// Stmt is one statement of a transaction body. Per the paper's assumptions
// each statement is either an operation (read or single-item update) or a
// conditional "if c then SS1 else SS2".
type Stmt interface {
	// compile accumulates the conservative (all-branches) read and write
	// sets of the statement and records its pure-delta flags.
	compile(rs, ws model.ItemSet)
	fmt.Stringer
}

// ReadStmt reads a data item into the transaction's local scope.
type ReadStmt struct {
	Item model.Item
}

// Read builds a read statement.
func Read(it model.Item) *ReadStmt { return &ReadStmt{Item: it} }

//tiermerge:sink
func (s *ReadStmt) compile(rs, _ model.ItemSet) { rs.Add(s.Item) }

func (s *ReadStmt) String() string { return fmt.Sprintf("read %s", s.Item) }

// UpdateStmt updates one data item: Item := Expr. The executor reads the old
// value of Item before writing (the "no blind writes" assumption of
// Section 3: a transaction that writes some data is assumed to read the
// value first), so write sets are always contained in read sets.
type UpdateStmt struct {
	Item model.Item
	Expr expr.Expr
	// pure is the compiled pure-delta flag (pureDelta).
	pure bool
}

// Update builds an update statement it := e.
func Update(it model.Item, e expr.Expr) *UpdateStmt { return &UpdateStmt{Item: it, Expr: e} }

//tiermerge:sink
func (s *UpdateStmt) compile(rs, ws model.ItemSet) {
	rs.Add(s.Item) // implicit pre-read of the target
	s.Expr.AddItems(rs)
	ws.Add(s.Item)
	// A statement can be shared (a re-executed copy keeps its original's
	// body): writing only a change keeps recompiling it race-free.
	if p := pureDelta(s); p != s.pure {
		s.pure = p
	}
}

// pureDelta reports whether st is a pure-delta update: additive in its
// target (x := x + δ) with δ referencing no item at all, so the increment
// is decided by constants and parameters alone and the write commutes with
// every other pure-delta write of x regardless of interleaving. Assignment
// shapes, multiplicative shapes, and additive shapes whose δ reads other
// items (whose increment could change under reordering) are all excluded.
func pureDelta(st *UpdateStmt) bool {
	a := expr.Analyze(st.Expr, st.Item)
	return a.Shape == expr.ShapeAdditive && expr.ItemFree(a.Delta)
}

func (s *UpdateStmt) String() string { return fmt.Sprintf("%s := %s", s.Item, s.Expr) }

// IfStmt is a conditional statement: if Cond then Then else Else. Else may
// be empty.
type IfStmt struct {
	Cond expr.Pred
	Then []Stmt
	Else []Stmt
}

// If builds a conditional with no else branch.
func If(cond expr.Pred, then ...Stmt) *IfStmt { return &IfStmt{Cond: cond, Then: then} }

// IfElse builds a conditional with both branches.
func IfElse(cond expr.Pred, then, els []Stmt) *IfStmt {
	return &IfStmt{Cond: cond, Then: then, Else: els}
}

func (s *IfStmt) compile(rs, ws model.ItemSet) {
	s.Cond.AddItems(rs)
	for _, st := range s.Then {
		st.compile(rs, ws)
	}
	for _, st := range s.Else {
		st.compile(rs, ws)
	}
}

func (s *IfStmt) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "if %s then { %s }", s.Cond, stmtsString(s.Then))
	if len(s.Else) > 0 {
		fmt.Fprintf(&b, " else { %s }", stmtsString(s.Else))
	}
	return b.String()
}

func stmtsString(ss []Stmt) string {
	parts := make([]string, len(ss))
	for i, s := range ss {
		parts[i] = s.String()
	}
	return strings.Join(parts, "; ")
}
