package tx

import (
	"fmt"
	"slices"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// NotInvertibleError reports that no compensating transaction could be
// synthesized for a profile; callers fall back to the undo approach of
// Section 6.2 ("compensating transactions may not be specified in some
// systems").
type NotInvertibleError struct {
	TxID   string
	Reason string
}

func (e *NotInvertibleError) Error() string {
	return fmt.Sprintf("tx: %s is not invertible: %s", e.TxID, e.Reason)
}

// Invert returns the compensating transaction T⁻¹ of t (Section 6.1):
// a transaction that semantically undoes t, with writeset ⊆ t.writeset.
//
// If the profile carries an explicit InverseBody (the canned-system case,
// where compensators are specified per transaction type) that body is used
// verbatim. Otherwise Invert synthesizes the inverse syntactically, which
// succeeds when:
//
//   - every update is additive (x := x + δ) or multiplicative by ±1, and
//   - no branch condition reads an item the transaction writes (so the
//     compensator, run on t's after state, takes the same branches t took).
//
// Under those conditions running the statement inverses in reverse order
// restores exactly t's before state, including when t executes under a fix:
// the fixed compensating transaction T^(-1,F) of Definition 5 is Invert(t)
// executed with the same fix F, which is what Lemma 4 requires (valid when
// F ∩ t.writeset = ∅, guaranteed for every fix Algorithm 2 produces).
func Invert(t *Transaction) (*Transaction, error) {
	if len(t.InverseBody) > 0 {
		inv := &Transaction{
			ID:     t.ID + "⁻¹",
			Type:   t.Type + "⁻¹",
			Kind:   t.Kind,
			Params: t.Params,
			Body:   t.InverseBody,
		}
		if err := inv.Validate(); err != nil {
			return nil, fmt.Errorf("tx: explicit inverse of %s invalid: %w", t.ID, err)
		}
		return inv, nil
	}
	t.ensureCompiled()
	body, err := invertStmts(t.ID, t.Body, t.staticWS)
	if err != nil {
		return nil, err
	}
	inv := &Transaction{
		ID:     t.ID + "⁻¹",
		Type:   t.Type + "⁻¹",
		Kind:   t.Kind,
		Params: t.Params,
		Body:   body,
	}
	if err := inv.Validate(); err != nil {
		return nil, fmt.Errorf("tx: synthesized inverse of %s invalid: %w", t.ID, err)
	}
	return inv, nil
}

// Invertible reports whether Invert would succeed for t.
func Invertible(t *Transaction) bool {
	_, err := Invert(t)
	return err == nil
}

// invertStmts produces the reverse-order inverse of a statement list.
// Conditions are kept as-is (they must be independent of the write set, so
// they evaluate identically on the after state); update statements are
// replaced by their algebraic inverses; read statements are dropped (they
// have no effect to undo).
// ws is the profile's compiled write set, sorted.
func invertStmts(txID string, body []Stmt, ws []model.Item) ([]Stmt, error) {
	var out []Stmt
	for i := len(body) - 1; i >= 0; i-- {
		switch st := body[i].(type) {
		case *ReadStmt:
			// no state effect; omit from the compensator
		case *UpdateStmt:
			inv, err := invertUpdate(txID, st)
			if err != nil {
				return nil, err
			}
			out = append(out, inv)
		case *AssignStmt:
			return nil, &NotInvertibleError{
				TxID:   txID,
				Reason: fmt.Sprintf("blind write %q has no syntactic inverse", st),
			}
		case *IfStmt:
			var written []model.Item
			for _, it := range st.Cond.AddItems(nil) {
				if _, ok := slices.BinarySearch(ws, it); ok {
					written = append(written, it)
				}
			}
			if len(written) > 0 {
				return nil, &NotInvertibleError{
					TxID: txID,
					Reason: fmt.Sprintf(
						"branch condition %q reads written items %s",
						st.Cond, model.NewItemSet(written...)),
				}
			}
			thenInv, err := invertStmts(txID, st.Then, ws)
			if err != nil {
				return nil, err
			}
			elseInv, err := invertStmts(txID, st.Else, ws)
			if err != nil {
				return nil, err
			}
			out = append(out, IfElse(st.Cond, thenInv, elseInv))
		default:
			return nil, fmt.Errorf("tx: unknown statement type %T", st)
		}
	}
	return out, nil
}

// invertUpdate produces the algebraic inverse of one update statement.
func invertUpdate(txID string, st *UpdateStmt) (Stmt, error) {
	a := expr.Analyze(st.Expr, st.Item)
	switch a.Shape {
	case expr.ShapeAdditive:
		// (x := x + δ)⁻¹ is x := x − δ. δ is independent of x; any other
		// items it reads are restored by later (i.e. earlier-in-t) inverse
		// statements after this one runs, matching the values δ saw in t.
		return Update(st.Item, expr.Sub(expr.Var(st.Item), a.Delta)), nil
	case expr.ShapeMultiplicative:
		if c, ok := constFactor(a.Delta); ok && (c == 1 || c == -1) {
			// x := x * ±1 is an involution.
			return Update(st.Item, expr.Mul(expr.Var(st.Item), expr.Const(c))), nil
		}
		return nil, &NotInvertibleError{
			TxID:   txID,
			Reason: fmt.Sprintf("multiplicative update %q has non-unit factor", st),
		}
	default:
		return nil, &NotInvertibleError{
			TxID:   txID,
			Reason: fmt.Sprintf("update %q is not additive", st),
		}
	}
}

// constFactor evaluates a factor expression that references no items or
// parameters to a constant.
func constFactor(e expr.Expr) (model.Value, bool) {
	if len(expr.ItemsOf(e)) > 0 || len(expr.ParamsOf(e)) > 0 {
		return 0, false
	}
	v, err := e.Eval(nullEnv{})
	if err != nil {
		return 0, false
	}
	return v, true
}

// nullEnv is an expr.Env with no items or parameters, used to fold
// closed expressions.
type nullEnv struct{}

func (nullEnv) ItemValue(it model.Item) (model.Value, error) {
	return 0, fmt.Errorf("tx: unexpected item reference %s in closed expression", it)
}

func (nullEnv) ParamValue(name string) (model.Value, error) {
	return 0, &expr.UnknownParamError{Name: name}
}
