// Package expr provides the executable expression language that transaction
// profiles are written in.
//
// The paper (Section 6) assumes transactions are sequences of read
// statements, single-item update statements of the form x := f(x, y1...yn),
// and if-then-else conditionals. This package supplies f and the branch
// predicates: an arithmetic AST over data items, named input parameters and
// integer constants, plus the static analyses (additive/multiplicative shape
// detection) that power commutativity detection and compensating-transaction
// synthesis.
package expr

import (
	"errors"
	"fmt"
	"strconv"

	"tiermerge/internal/model"
)

// ErrDivideByZero is returned when evaluation divides or takes a modulus by
// zero. Callers treat it as "the transaction is not defined on this state",
// matching the paper's "for any state on which T1T2 is defined" phrasing.
var ErrDivideByZero = errors.New("expr: divide by zero")

// UnknownParamError reports a reference to an input parameter the
// transaction was not given.
type UnknownParamError struct{ Name string }

func (e *UnknownParamError) Error() string {
	return fmt.Sprintf("expr: unknown parameter %q", e.Name)
}

// Env supplies item and parameter values during evaluation. The transaction
// executor implements it, routing item reads through fixes (Definition 1)
// when present.
type Env interface {
	// ItemValue reads the current value of a data item, recording the read.
	ItemValue(model.Item) (model.Value, error)
	// ParamValue reads a named input parameter.
	ParamValue(string) (model.Value, error)
}

// Expr is an arithmetic expression over items, parameters and constants.
type Expr interface {
	// Eval computes the expression's value in env.
	Eval(Env) (model.Value, error)
	// AddItems appends every data item the expression references to dst,
	// once per reference, and returns the extended slice.
	AddItems(dst []model.Item) []model.Item
	// AddParams accumulates every parameter name the expression references.
	AddParams(map[string]struct{})
	// Subst returns the expression with every occurrence of item x replaced
	// by repl. Used by undo-repair construction to bind operands to logged
	// values (Algorithm 3 step 2).
	Subst(x model.Item, repl Expr) Expr
	fmt.Stringer
}

// Op identifies a binary arithmetic operator.
type Op int

// Binary operators supported by the profile language.
const (
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpMod
	OpMin
	OpMax
)

func (o Op) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// constExpr is an integer literal.
type constExpr struct{ v model.Value }

// Const builds a constant expression.
func Const(v model.Value) Expr { return constExpr{v: v} }

func (c constExpr) Eval(Env) (model.Value, error)          { return c.v, nil }
func (c constExpr) AddItems(dst []model.Item) []model.Item { return dst }
func (c constExpr) AddParams(map[string]struct{})          {}
func (c constExpr) Subst(model.Item, Expr) Expr            { return c }
func (c constExpr) String() string                         { return strconv.FormatInt(int64(c.v), 10) }

// varExpr reads a data item.
type varExpr struct{ it model.Item }

// Var builds an item-reference expression.
func Var(it model.Item) Expr { return varExpr{it: it} }

func (v varExpr) Eval(env Env) (model.Value, error) { return env.ItemValue(v.it) }

// AddItems appends the item to the caller-owned slice.
func (v varExpr) AddItems(dst []model.Item) []model.Item { return append(dst, v.it) }
func (v varExpr) AddParams(map[string]struct{})          {}
func (v varExpr) Subst(x model.Item, repl Expr) Expr {
	if v.it == x {
		return repl
	}
	return v
}
func (v varExpr) String() string { return string(v.it) }

// paramExpr reads a named transaction input parameter.
type paramExpr struct{ name string }

// Param builds a parameter-reference expression.
func Param(name string) Expr { return paramExpr{name: name} }

func (p paramExpr) Eval(env Env) (model.Value, error)      { return env.ParamValue(p.name) }
func (p paramExpr) AddItems(dst []model.Item) []model.Item { return dst }
func (p paramExpr) AddParams(s map[string]struct{})        { s[p.name] = struct{}{} }
func (p paramExpr) Subst(model.Item, Expr) Expr            { return p }
func (p paramExpr) String() string                         { return "$" + p.name }

// binExpr applies a binary operator.
type binExpr struct {
	op   Op
	l, r Expr
}

// Bin builds a binary operator expression.
func Bin(op Op, l, r Expr) Expr { return binExpr{op: op, l: l, r: r} }

// Add returns l + r.
func Add(l, r Expr) Expr { return Bin(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Bin(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Bin(OpMul, l, r) }

// Div returns l / r (integer division; evaluation errors on r == 0).
func Div(l, r Expr) Expr { return Bin(OpDiv, l, r) }

// Neg returns -e.
func Neg(e Expr) Expr { return Bin(OpSub, Const(0), e) }

func (b binExpr) Eval(env Env) (model.Value, error) {
	l, err := b.l.Eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.Eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, ErrDivideByZero
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, ErrDivideByZero
		}
		return l % r, nil
	case OpMin:
		if l < r {
			return l, nil
		}
		return r, nil
	case OpMax:
		if l > r {
			return l, nil
		}
		return r, nil
	default:
		return 0, fmt.Errorf("expr: unknown operator %v", b.op)
	}
}

func (b binExpr) AddItems(dst []model.Item) []model.Item {
	return b.r.AddItems(b.l.AddItems(dst))
}

func (b binExpr) AddParams(s map[string]struct{}) {
	b.l.AddParams(s)
	b.r.AddParams(s)
}

func (b binExpr) Subst(x model.Item, repl Expr) Expr {
	return binExpr{op: b.op, l: b.l.Subst(x, repl), r: b.r.Subst(x, repl)}
}

func (b binExpr) String() string {
	if b.op == OpMin || b.op == OpMax {
		return fmt.Sprintf("%s(%s, %s)", b.op, b.l, b.r)
	}
	return fmt.Sprintf("(%s %s %s)", b.l, b.op, b.r)
}

// ItemsOf returns the set of data items an expression references.
func ItemsOf(e Expr) model.ItemSet {
	return model.NewItemSet(e.AddItems(nil)...)
}

// ParamsOf returns the set of parameter names an expression references.
func ParamsOf(e Expr) map[string]struct{} {
	s := make(map[string]struct{})
	e.AddParams(s)
	return s
}

// References reports whether the expression mentions item x. It walks the
// built-in nodes without collecting a set: Analyze asks it at every level
// of an update expression.
func References(e Expr, x model.Item) bool {
	switch e := e.(type) {
	case varExpr:
		return e.it == x
	case constExpr, paramExpr:
		return false
	case binExpr:
		return References(e.l, x) || References(e.r, x)
	}
	return ItemsOf(e).Has(x)
}

// ItemFree reports whether the expression mentions no item at all, so its
// value is decided by constants and parameters alone.
func ItemFree(e Expr) bool {
	switch e := e.(type) {
	case varExpr:
		return false
	case constExpr, paramExpr:
		return true
	case binExpr:
		return ItemFree(e.l) && ItemFree(e.r)
	}
	return len(ItemsOf(e)) == 0
}
