package tx

import (
	"fmt"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// AssignStmt is a blind write: Item := Expr without the implicit pre-read of
// the target. The merging protocol itself (precedence graph, back-out,
// reads-from closure, pruning by undo) handles blind writes fine — Example 1
// of the paper uses them — but the rewriting model of Section 3 assumes they
// are absent, so the rewriting algorithms reject histories containing them
// (the paper: "Although the rewriting approach can be adapted to blind
// writes, doing so complicates the presentation").
type AssignStmt struct {
	Item model.Item
	Expr expr.Expr
}

// Assign builds a blind-write statement it := e.
func Assign(it model.Item, e expr.Expr) *AssignStmt { return &AssignStmt{Item: it, Expr: e} }

func (s *AssignStmt) compile(rs, ws []model.Item) ([]model.Item, []model.Item) {
	return s.Expr.AddItems(rs), append(ws, s.Item) // operands are read; the target is not
}

func (s *AssignStmt) String() string { return fmt.Sprintf("%s :=! %s", s.Item, s.Expr) }

// HasBlindWrites reports whether any statement of the profile is a blind
// write, on any path.
func (t *Transaction) HasBlindWrites() bool { return hasBlind(t.Body) }

func hasBlind(body []Stmt) bool {
	for _, s := range body {
		switch st := s.(type) {
		case *AssignStmt:
			return true
		case *IfStmt:
			if hasBlind(st.Then) || hasBlind(st.Else) {
				return true
			}
		}
	}
	return false
}
