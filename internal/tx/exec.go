package tx

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
)

// ItemEffect is what one execution did to one item.
type ItemEffect struct {
	Item model.Item
	// Read: in the read set (read on the taken path, the implicit pre-read
	// of an update target included). Observed: read from the state or the
	// fix before any local write, ReadValue being the value seen — what a
	// fix must pin (Definition 1: "vi is what Ti read for xi in the
	// original history"). General: read for a value the outcome can depend
	// on, i.e. not only as its own pure-delta update's pre-read.
	Read, Observed, General bool
	// Written: in the write set, with final value Value and Before the
	// value before the transaction ran (Section 6.2's physical undo).
	// Increment: written by a pure-delta statement (x := x + δ, δ naming
	// no item), which added Delta.
	Written, Increment bool

	ReadValue, Value, Before, Delta model.Value
}

// DeltaPure reports whether the execution touched the item only as a
// commutative increment: delta-written, and never read except through the
// update's own implicit pre-read. Such an access commutes with any other
// delta-pure access of the item, in either history, which is what lets the
// merge protocol elide precedence edges and forward net increments instead
// of repaired values.
func (r ItemEffect) DeltaPure() bool { return r.Increment && !r.General }

// Effect is the logged outcome of one transaction execution: the actual
// read/write sets, the values read (for fix construction) and the
// before/after images of written items (for physical undo and for
// Algorithm 3's beforestate/afterstate bindings), one record per item.
type Effect struct {
	// Items are the records, sorted by item.
	Items []ItemEffect
	// ReadSet and Writes are views over Items built when the execution
	// ends: the items read, and the final value of each item written. The
	// program reads Items; the views serve the benchmark probe
	// (bench/probe.go), which reads effects as sets and maps.
	ReadSet model.ItemSet
	Writes  map[model.Item]model.Value
}

// Lookup returns the record of it, if the execution read or wrote it.
func (e *Effect) Lookup(it model.Item) (ItemEffect, bool) {
	if i, ok := e.find(it); ok {
		return e.Items[i], true
	}
	return ItemEffect{}, false
}

func (e *Effect) find(it model.Item) (int, bool) {
	return slices.BinarySearchFunc(e.Items, it, func(r ItemEffect, it model.Item) int { return cmp.Compare(r.Item, it) })
}

// slot returns the record of it, inserting an empty one in item order if
// there is none yet.
func (e *Effect) slot(it model.Item) *ItemEffect {
	i, ok := e.find(it)
	if !ok {
		e.Items = slices.Insert(e.Items, i, ItemEffect{Item: it})
	}
	return &e.Items[i]
}

// AnyShared reports whether f holds for the two records of some item both
// a and b touched; items are visited in a's order.
func AnyShared(a, b *Effect, f func(x, y ItemEffect) bool) bool {
	for _, x := range a.Items {
		if y, ok := b.Lookup(x.Item); ok && f(x, y) {
			return true
		}
	}
	return false
}

// Clone deep-copies the effect.
func (e *Effect) Clone() *Effect {
	return &Effect{Items: slices.Clone(e.Items), ReadSet: e.ReadSet.Clone(), Writes: maps.Clone(e.Writes)}
}

// Apply writes the execution's final values into s.
func (e *Effect) Apply(s model.State) {
	for _, r := range e.Items {
		if r.Written {
			s.Set(r.Item, r.Value)
		}
	}
}

// FixFor builds a Lemma 1 fix increment for this execution: the values
// this transaction read externally for each item whose record want
// selects.
func (e *Effect) FixFor(want func(ItemEffect) bool) Fix {
	var f Fix
	for _, r := range e.Items {
		if r.Observed && want(r) {
			if f == nil {
				f = make(Fix)
			}
			f[r.Item] = r.ReadValue
		}
	}
	return f
}

// execEnv implements expr.Env for one transaction execution, routing item
// reads through local writes first (the effect's written records), then
// the fix, then the database state.
type execEnv struct {
	state  model.State
	fix    Fix
	params map[string]model.Value
	eff    *Effect
	// deltaTarget is the item whose pure-delta update statement is
	// currently executing; reads of it are the statement's implicit
	// self pre-read, not general reads. Empty outside such a statement.
	deltaTarget model.Item
}

func (e *execEnv) ItemValue(it model.Item) (model.Value, error) {
	r := e.eff.slot(it)
	r.Read = true
	r.General = r.General || it != e.deltaTarget || it == ""
	if r.Written {
		return r.Value, nil
	}
	if !r.Observed {
		// Definition 1: values read for fixed variables come from the fix,
		// not from the before state.
		v, fixed := e.fix[it]
		if !fixed {
			v = e.state.Get(it)
		}
		r.Observed, r.ReadValue = true, v
	}
	return r.ReadValue, nil
}

// write records the update it := v with its before-image.
func (e *execEnv) write(it model.Item, v model.Value) (*ItemEffect, error) {
	r := e.eff.slot(it)
	if r.Written {
		return nil, fmt.Errorf("item %s updated twice on one path", it)
	}
	r.Written, r.Value, r.Before = true, v, e.state.Get(it)
	return r, nil
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
func (t *Transaction) ExecInPlace(s model.State, fix Fix) (*Effect, error) {
	t.ensureCompiled()
	// The footprint bounds the items any path touches: one allocation.
	eff := &Effect{Items: make([]ItemEffect, 0, len(t.footprint))}
	if err := runStmts(t.Body, &execEnv{state: s, fix: fix, params: t.Params, eff: eff}); err != nil {
		return nil, fmt.Errorf("exec %s: %w", t.ID, err)
	}
	eff.ReadSet = make(model.ItemSet, len(eff.Items))
	for _, r := range eff.Items {
		if r.Read {
			eff.ReadSet.Add(r.Item)
		}
		if r.Written {
			if eff.Writes == nil {
				eff.Writes = make(map[model.Item]model.Value, len(eff.Items))
			}
			eff.Writes[r.Item] = r.Value
			s.Set(r.Item, r.Value)
		}
	}
	return eff, nil
}

// DefinedOn reports whether the transaction executes without error on s
// with the given fix (the paper's "T is defined on s").
func (t *Transaction) DefinedOn(s model.State, fix Fix) bool {
	_, _, err := t.Exec(s, fix)
	return err == nil
}

func runStmts(body []Stmt, env *execEnv) error {
	for _, s := range body {
		switch st := s.(type) {
		case *ReadStmt:
			if _, err := env.ItemValue(st.Item); err != nil {
				return err
			}
		case *UpdateStmt:
			if st.pure {
				env.deltaTarget = st.Item
			}
			// No blind writes: read the target's old value first even when
			// the update expression does not mention it.
			old, _ := env.ItemValue(st.Item)
			v, err := st.Expr.Eval(env)
			env.deltaTarget = ""
			if err != nil {
				return err
			}
			r, err := env.write(st.Item, v)
			if err != nil {
				return err
			}
			if st.pure {
				r.Increment, r.Delta = true, v-old
			}
		case *AssignStmt:
			v, err := st.Expr.Eval(env)
			if err != nil {
				return err
			}
			if _, err := env.write(st.Item, v); err != nil {
				return err
			}
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
