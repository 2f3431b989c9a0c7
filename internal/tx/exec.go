package tx

import (
	"fmt"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// Effect is the logged outcome of one transaction execution: the actual
// read/write sets, the values read (for fix construction) and the
// before/after images of written items (for physical undo and for
// Algorithm 3's beforestate/afterstate bindings).
type Effect struct {
	// ReadSet is the set of items actually read on the taken path,
	// including the implicit pre-read of each update target.
	ReadSet model.ItemSet
	// WriteSet is the set of items actually updated on the taken path.
	WriteSet model.ItemSet
	// ReadValues records, for each externally read item, the value the
	// transaction observed the first time it read the item (before any
	// local write). These are exactly the values a fix must pin
	// (Definition 1: "vi is what Ti read for xi in the original history").
	ReadValues map[model.Item]model.Value
	// Writes records the final value written to each updated item.
	Writes map[model.Item]model.Value
	// Before records the database value of each updated item immediately
	// before this transaction ran (the physical before-image used by the
	// undo approach of Section 6.2).
	Before map[model.Item]model.Value
	// Deltas records, for each item updated by a pure-delta statement
	// (x := x + δ where δ references no item at all, so the increment is a
	// state-independent constant/parameter expression), the numeric
	// increment the execution applied. Keys are a subset of WriteSet.
	// A pure-delta write commutes with every other pure-delta write of the
	// same item, which is what lets the merge protocol elide precedence
	// edges and forward net increments instead of repaired values.
	Deltas map[model.Item]model.Value
	// generalRead tracks items read for a value the transaction's outcome
	// can depend on: every read except the implicit self pre-read of an
	// item's own pure-delta update. An item in generalRead is never
	// delta-pure, even if it was also delta-written.
	generalRead model.ItemSet
}

// newEffect returns an empty effect log.
func newEffect() *Effect {
	return &Effect{
		ReadSet:     make(model.ItemSet),
		WriteSet:    make(model.ItemSet),
		ReadValues:  make(map[model.Item]model.Value),
		Writes:      make(map[model.Item]model.Value),
		Before:      make(map[model.Item]model.Value),
		Deltas:      make(map[model.Item]model.Value),
		generalRead: make(model.ItemSet),
	}
}

// DeltaPure returns the items this execution touched only as commutative
// increments: delta-written, and never read except through the implicit
// self pre-read of the delta update itself. Such an access commutes with
// any other delta-pure access of the same item, in either history.
func (e *Effect) DeltaPure() model.ItemSet {
	out := make(model.ItemSet, len(e.Deltas))
	for it := range e.Deltas {
		if !e.generalRead.Has(it) {
			out.Add(it)
		}
	}
	return out
}

// SetDeltaPure overrides the recorded delta classification: it marks it as
// delta-written with increment d and clears any general read of it. The
// replication substrate uses it for synthesized forward transactions whose
// additive bodies are delta-pure by construction; tests use it to fabricate
// effects. It must never be applied to an effect whose outcome actually
// depended on the value read for it.
func (e *Effect) SetDeltaPure(it model.Item, d model.Value) {
	e.Deltas[it] = d
	delete(e.generalRead, it)
}

// Clone deep-copies the effect.
func (e *Effect) Clone() *Effect {
	c := newEffect()
	for k := range e.ReadSet {
		c.ReadSet.Add(k)
	}
	for k := range e.WriteSet {
		c.WriteSet.Add(k)
	}
	for k, v := range e.ReadValues {
		c.ReadValues[k] = v
	}
	for k, v := range e.Writes {
		c.Writes[k] = v
	}
	for k, v := range e.Before {
		c.Before[k] = v
	}
	for k, v := range e.Deltas {
		c.Deltas[k] = v
	}
	for k := range e.generalRead {
		c.generalRead.Add(k)
	}
	return c
}

// FixFor builds the Lemma 1 fix increment for this execution: the values
// this transaction read for each item of want, restricted to items it
// actually read externally.
func (e *Effect) FixFor(want model.ItemSet) Fix {
	var f Fix
	for it := range want {
		if v, ok := e.ReadValues[it]; ok {
			if f == nil {
				f = make(Fix)
			}
			f[it] = v
		}
	}
	return f
}

// execEnv implements expr.Env for one transaction execution, routing item
// reads through local writes first, then the fix, then the database state.
type execEnv struct {
	state  model.State
	fix    Fix
	params map[string]model.Value
	local  map[model.Item]model.Value // items written so far by this txn
	eff    *Effect
	// deltaTarget is the item whose pure-delta update statement is
	// currently executing; reads of it are the statement's implicit
	// self pre-read, not general reads. Empty outside such a statement.
	deltaTarget model.Item
}

var _ expr.Env = (*execEnv)(nil)

func (e *execEnv) ItemValue(it model.Item) (model.Value, error) {
	e.eff.ReadSet.Add(it)
	if it != e.deltaTarget || it == "" {
		e.eff.generalRead.Add(it)
	}
	if v, ok := e.local[it]; ok {
		return v, nil
	}
	var v model.Value
	if fv, ok := e.fix[it]; ok {
		// Definition 1: values read for fixed variables come from the fix,
		// not from the before state.
		v = fv
	} else {
		v = e.state.Get(it)
	}
	if _, seen := e.eff.ReadValues[it]; !seen {
		e.eff.ReadValues[it] = v
	}
	return v, nil
}

func (e *execEnv) ParamValue(name string) (model.Value, error) {
	v, ok := e.params[name]
	if !ok {
		return 0, &expr.UnknownParamError{Name: name}
	}
	return v, nil
}

// Exec runs the transaction against state s with the given fix (nil for the
// empty fix) and returns the resulting state plus the effect log. The input
// state is never modified.
func (t *Transaction) Exec(s model.State, fix Fix) (model.State, *Effect, error) {
	out := s.Clone()
	eff, err := t.ExecInPlace(out, fix)
	if err != nil {
		return nil, nil, err
	}
	return out, eff, nil
}

// ExecInPlace runs the transaction against s, mutating it, and returns the
// effect log. It is atomic: writes are buffered until the whole body has run,
// so on error s is unchanged. An augmented history runs all its entries on
// one working state this way (history.Run).
//
//tiermerge:sink
func (t *Transaction) ExecInPlace(s model.State, fix Fix) (*Effect, error) {
	env := &execEnv{
		state:  s,
		fix:    fix,
		params: t.Params,
		local:  make(map[model.Item]model.Value),
		eff:    newEffect(),
	}
	if err := runStmts(t.Body, env); err != nil {
		return nil, fmt.Errorf("exec %s: %w", t.ID, err)
	}
	for it, v := range env.local {
		s.Set(it, v)
	}
	return env.eff, nil
}

// pureDelta reports whether st is a pure-delta update: additive in its
// target (x := x + δ) with δ referencing no item at all, so the increment
// is decided by constants and parameters alone and the write commutes with
// every other pure-delta write of x regardless of interleaving. Assignment
// shapes, multiplicative shapes, and additive shapes whose δ reads other
// items (whose increment could change under reordering) are all excluded.
func pureDelta(st *UpdateStmt) bool {
	if expr.Analyze(st.Expr, st.Item).Shape != expr.ShapeAdditive {
		return false
	}
	for it := range expr.ItemsOf(st.Expr) {
		if it != st.Item {
			return false
		}
	}
	return true
}

// DefinedOn reports whether the transaction executes without error on s
// with the given fix (the paper's "T is defined on s").
func (t *Transaction) DefinedOn(s model.State, fix Fix) bool {
	_, _, err := t.Exec(s, fix)
	return err == nil
}

//tiermerge:sink
func runStmts(body []Stmt, env *execEnv) error {
	for _, s := range body {
		switch st := s.(type) {
		case *ReadStmt:
			if _, err := env.ItemValue(st.Item); err != nil {
				return err
			}
		case *UpdateStmt:
			if _, done := env.local[st.Item]; done {
				return fmt.Errorf("item %s updated twice on one path", st.Item)
			}
			pure := pureDelta(st)
			if pure {
				env.deltaTarget = st.Item
			}
			// No blind writes: read the target's old value first even when
			// the update expression does not mention it.
			old, err := env.ItemValue(st.Item)
			if err != nil {
				env.deltaTarget = ""
				return err
			}
			v, err := st.Expr.Eval(env)
			env.deltaTarget = ""
			if err != nil {
				return err
			}
			env.eff.WriteSet.Add(st.Item)
			env.eff.Writes[st.Item] = v
			env.eff.Before[st.Item] = env.state.Get(st.Item)
			env.local[st.Item] = v
			if pure {
				env.eff.Deltas[st.Item] = v - old
			}
		case *AssignStmt:
			if _, done := env.local[st.Item]; done {
				return fmt.Errorf("item %s updated twice on one path", st.Item)
			}
			v, err := st.Expr.Eval(env)
			if err != nil {
				return err
			}
			env.eff.WriteSet.Add(st.Item)
			env.eff.Writes[st.Item] = v
			env.eff.Before[st.Item] = env.state.Get(st.Item)
			env.local[st.Item] = v
		case *IfStmt:
			cond, err := st.Cond.Eval(env)
			if err != nil {
				return err
			}
			branch := st.Else
			if cond {
				branch = st.Then
			}
			if err := runStmts(branch, env); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown statement type %T", s)
		}
	}
	return nil
}
