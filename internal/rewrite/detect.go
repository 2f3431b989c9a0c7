package rewrite

import (
	"math/rand"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// StaticDetector decides can-precede by analyzing transaction profiles — the
// mode the paper prescribes for canned systems, where the relation between
// transaction *types* is pre-detected offline (Section 5.1). It is sound:
// when it answers true, t2 genuinely can precede t1^fix for every state and
// every fix-value assignment. It is conservative: unstructured profiles
// degrade to false.
//
// The detector enforces Property 1 by construction (its first two rules are
// exactly Property 1's conditions), so Algorithm 2 run with it satisfies the
// premises of Lemma 3 and Theorem 4.
type StaticDetector struct{}

var _ PrecedeDetector = StaticDetector{}

// Name implements PrecedeDetector.
func (StaticDetector) Name() string { return "static" }

// CanPrecede implements PrecedeDetector. The rules, for each data item z:
//
//   - z written by t2 only: t1 must not generally read z unless z is pinned
//     by the fix (Property 1, first condition, refined by fixes as in the
//     Theorem 4 proof);
//   - z written by t1 only: t2 must not generally read z (Property 1,
//     second condition — t2 carries no fix);
//   - z written by both: both transactions' updates of z must be additive
//     (x := x + δ), in which case the two deltas commute; a general read of
//     a shared item by either side is order-dependent and rejects.
//
// "Generally read" means read anywhere except as the additive base of the
// item's own update (the base read is what makes additive updates commute).
func (StaticDetector) CanPrecede(t2, t1 *tx.Transaction, fix tx.Fix) bool {
	if t1.HasBlindWrites() || t2.HasBlindWrites() {
		return false
	}
	fixItems := fix.Items()
	u1, u2 := usageOf(t1), usageOf(t2)
	if !fixItems.Disjoint(u1.writes) {
		// Fixes produced by the rewriting algorithms never pin written
		// items (Lemma 4's precondition); refuse odd inputs.
		return false
	}
	items := u1.all().Union(u2.all())
	for z := range items {
		w1, w2 := u1.writes.Has(z), u2.writes.Has(z)
		switch {
		case w1 && w2:
			if !u1.additive.Has(z) || !u2.additive.Has(z) {
				return false
			}
			if u1.general.Has(z) || u2.general.Has(z) {
				return false
			}
		case w2: // t2 writes z, t1 does not
			if u1.general.Has(z) && !fixItems.Has(z) {
				return false
			}
		case w1: // t1 writes z, t2 does not
			if u2.general.Has(z) {
				return false
			}
		}
	}
	return true
}

// usage summarizes how a profile touches items.
type usage struct {
	writes   model.ItemSet // items updated on some path
	additive model.ItemSet // items whose every update (on every path) is additive
	general  model.ItemSet // items with a value-sensitive read outside their own additive base
}

func (u usage) all() model.ItemSet {
	return u.writes.Union(u.general).Union(u.additive)
}

// usageOf classifies every item access of the profile.
func usageOf(t *tx.Transaction) usage {
	u := usage{
		writes:   make(model.ItemSet),
		additive: make(model.ItemSet),
		general:  make(model.ItemSet),
	}
	nonAdditive := make(model.ItemSet)
	classifyStmts(t.Body, &u, nonAdditive)
	for z := range nonAdditive {
		delete(u.additive, z)
	}
	return u
}

func classifyStmts(body []tx.Stmt, u *usage, nonAdditive model.ItemSet) {
	for _, s := range body {
		switch st := s.(type) {
		case *tx.ReadStmt:
			// A bare read binds a local value with no state effect; it does
			// not constrain commutation of final states.
		case *tx.UpdateStmt:
			u.writes.Add(st.Item)
			a := expr.Analyze(st.Expr, st.Item)
			switch a.Shape {
			case expr.ShapeAdditive:
				u.additive.Add(st.Item)
				// δ's operands are value-sensitive reads.
				for z := range expr.ItemsOf(a.Delta) {
					u.general.Add(z)
				}
			case expr.ShapeAssign:
				nonAdditive.Add(st.Item)
				for z := range expr.ItemsOf(st.Expr) {
					u.general.Add(z)
				}
			default:
				nonAdditive.Add(st.Item)
				// The base value of x matters non-additively.
				u.general.Add(st.Item)
				for z := range expr.ItemsOf(st.Expr) {
					u.general.Add(z)
				}
			}
		case *tx.AssignStmt:
			u.writes.Add(st.Item)
			nonAdditive.Add(st.Item)
			for z := range expr.ItemsOf(st.Expr) {
				u.general.Add(z)
			}
		case *tx.IfStmt:
			for z := range expr.PredItemsOf(st.Cond) {
				u.general.Add(z)
			}
			classifyStmts(st.Then, u, nonAdditive)
			classifyStmts(st.Else, u, nonAdditive)
		}
	}
}

// DynamicDetector decides can-precede by randomized semantic testing: it
// samples states and fix-value assignments, executes t1^fix t2 and t2 t1^fix
// and compares final states. This is the "detected at the time of repair"
// mode the paper describes for non-canned systems whose transaction code is
// recorded in the log (Section 5.1). It is probabilistic — a relation can be
// claimed that a rare state would refute — so production deployments use it
// behind the sound StaticDetector, and the test suite uses it to cross-check
// the static rules.
type DynamicDetector struct {
	// Rng drives state sampling. Must be non-nil.
	Rng *rand.Rand
	// Samples is the number of random states tried (default 64).
	Samples int
	// ValueRange bounds sampled magnitudes (default 1000).
	ValueRange int64
}

var _ PrecedeDetector = (*DynamicDetector)(nil)

// Name implements PrecedeDetector.
func (*DynamicDetector) Name() string { return "dynamic" }

// CanPrecede implements PrecedeDetector.
func (d *DynamicDetector) CanPrecede(t2, t1 *tx.Transaction, fix tx.Fix) bool {
	samples := d.Samples
	if samples == 0 {
		samples = 64
	}
	vr := d.ValueRange
	if vr == 0 {
		vr = 1000
	}
	items := statesOverlap(t1, t2)
	for it := range fix.Items() {
		items.Add(it)
	}
	valid := 0
	for i := 0; i < samples; i++ {
		s := model.NewState()
		for it := range items {
			s.Set(it, model.Value(d.Rng.Int63n(2*vr+1)-vr))
		}
		// Definition 4 quantifies over every assignment to the fixed
		// variables, not just the recorded one: resample them.
		f := fix.Clone()
		for it := range f {
			f[it] = model.Value(d.Rng.Int63n(2*vr+1) - vr)
		}
		s1, _, err1 := t1.Exec(s, f)
		if err1 != nil {
			continue // t1^F not defined on s: vacuous sample
		}
		s12, _, err2 := t2.Exec(s1, nil)
		if err2 != nil {
			continue // t1^F t2 not defined on s: vacuous sample
		}
		// Both conditions of Definition 4: t2 t1^F must be defined and
		// produce the same final state.
		s2, _, err3 := t2.Exec(s, nil)
		if err3 != nil {
			return false
		}
		s21, _, err4 := t1.Exec(s2, f)
		if err4 != nil {
			return false
		}
		if !s12.Equal(s21) {
			return false
		}
		valid++
	}
	return valid > 0
}
