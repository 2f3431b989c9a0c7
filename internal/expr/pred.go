package expr

import (
	"fmt"

	"tiermerge/internal/model"
)

// CmpOp identifies a comparison operator in branch predicates.
type CmpOp int

// Comparison operators supported by if-statement conditions.
const (
	CmpEQ CmpOp = iota + 1
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (o CmpOp) String() string {
	switch o {
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return fmt.Sprintf("cmp(%d)", int(o))
	}
}

// Pred is a boolean predicate used as an if-statement condition.
type Pred interface {
	// Eval decides the predicate in env.
	Eval(Env) (bool, error)
	// AddItems appends every data item the predicate references to dst,
	// once per reference, and returns the extended slice.
	AddItems(dst []model.Item) []model.Item
	// AddParams accumulates every parameter name the predicate references.
	AddParams(map[string]struct{})
	fmt.Stringer
}

// cmpPred compares two arithmetic expressions.
type cmpPred struct {
	op   CmpOp
	l, r Expr
}

// Cmp builds a comparison predicate l <op> r.
func Cmp(op CmpOp, l, r Expr) Pred { return cmpPred{op: op, l: l, r: r} }

// GT returns l > r.
func GT(l, r Expr) Pred { return Cmp(CmpGT, l, r) }

// GE returns l >= r.
func GE(l, r Expr) Pred { return Cmp(CmpGE, l, r) }

// LT returns l < r.
func LT(l, r Expr) Pred { return Cmp(CmpLT, l, r) }

// LE returns l <= r.
func LE(l, r Expr) Pred { return Cmp(CmpLE, l, r) }

// EQ returns l == r.
func EQ(l, r Expr) Pred { return Cmp(CmpEQ, l, r) }

// NE returns l != r.
func NE(l, r Expr) Pred { return Cmp(CmpNE, l, r) }

func (c cmpPred) Eval(env Env) (bool, error) {
	l, err := c.l.Eval(env)
	if err != nil {
		return false, err
	}
	r, err := c.r.Eval(env)
	if err != nil {
		return false, err
	}
	switch c.op {
	case CmpEQ:
		return l == r, nil
	case CmpNE:
		return l != r, nil
	case CmpLT:
		return l < r, nil
	case CmpLE:
		return l <= r, nil
	case CmpGT:
		return l > r, nil
	case CmpGE:
		return l >= r, nil
	default:
		return false, fmt.Errorf("expr: unknown comparison %v", c.op)
	}
}

func (c cmpPred) AddItems(dst []model.Item) []model.Item {
	return c.r.AddItems(c.l.AddItems(dst))
}

func (c cmpPred) AddParams(s map[string]struct{}) {
	c.l.AddParams(s)
	c.r.AddParams(s)
}

func (c cmpPred) String() string { return fmt.Sprintf("%s %s %s", c.l, c.op, c.r) }

// andPred is a conjunction.
type andPred struct{ l, r Pred }

// And builds l && r.
func And(l, r Pred) Pred { return andPred{l: l, r: r} }

func (a andPred) Eval(env Env) (bool, error) {
	l, err := a.l.Eval(env)
	if err != nil {
		return false, err
	}
	if !l {
		return false, nil
	}
	return a.r.Eval(env)
}

func (a andPred) AddItems(dst []model.Item) []model.Item {
	return a.r.AddItems(a.l.AddItems(dst))
}

func (a andPred) AddParams(s map[string]struct{}) {
	a.l.AddParams(s)
	a.r.AddParams(s)
}

func (a andPred) String() string { return fmt.Sprintf("(%s && %s)", a.l, a.r) }

// orPred is a disjunction.
type orPred struct{ l, r Pred }

// Or builds l || r.
func Or(l, r Pred) Pred { return orPred{l: l, r: r} }

func (o orPred) Eval(env Env) (bool, error) {
	l, err := o.l.Eval(env)
	if err != nil {
		return false, err
	}
	if l {
		return true, nil
	}
	return o.r.Eval(env)
}

func (o orPred) AddItems(dst []model.Item) []model.Item {
	return o.r.AddItems(o.l.AddItems(dst))
}

func (o orPred) AddParams(s map[string]struct{}) {
	o.l.AddParams(s)
	o.r.AddParams(s)
}

func (o orPred) String() string { return fmt.Sprintf("(%s || %s)", o.l, o.r) }

// notPred is a negation.
type notPred struct{ p Pred }

// Not builds !p.
func Not(p Pred) Pred { return notPred{p: p} }

func (n notPred) Eval(env Env) (bool, error) {
	v, err := n.p.Eval(env)
	if err != nil {
		return false, err
	}
	return !v, nil
}

func (n notPred) AddItems(dst []model.Item) []model.Item { return n.p.AddItems(dst) }
func (n notPred) AddParams(s map[string]struct{})        { n.p.AddParams(s) }
func (n notPred) String() string                         { return fmt.Sprintf("!(%s)", n.p) }

// PredItemsOf returns the set of data items a predicate references.
func PredItemsOf(p Pred) model.ItemSet {
	return model.NewItemSet(p.AddItems(nil)...)
}
