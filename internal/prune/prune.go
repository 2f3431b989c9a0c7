// Package prune implements Section 6: extracting the repaired history's
// effect from a rewritten history. Two approaches are provided, exactly as
// in the paper:
//
//   - the compensation approach (Section 6.1): execute the fixed
//     compensating transaction T^(-1,F) of every transaction in H_e − H_r,
//     in reverse order, starting from the final state (Definition 5,
//     Lemma 4);
//   - the undo approach (Section 6.2): physically undo every transaction in
//     H_e − H_r from logged before-images, then execute the undo-repair
//     actions built by Algorithm 3 for the affected transactions that were
//     saved into H_r.
//
// Both approaches land on the same state the repaired history would produce
// if re-executed from scratch (Theorem 5) — without re-executing the saved
// transactions, which is the whole point of the merging protocol.
package prune

import (
	"fmt"
	"sort"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
)

// ByCompensation prunes the rewritten history by fixed compensation: for
// each transaction in H_e − H_r, in reverse of their original order, it
// executes the fixed compensating transaction T^(-1,F) (the regular
// compensator with the same fix, Definition 5) starting from final (the
// final state of H^s, which equals the final state of H_e). It returns the
// repaired state together with the compensators it ran.
//
// Lemma 4 guarantees correctness because every fix produced by the
// rewriting algorithms satisfies F ∩ writeset = ∅. A NotInvertibleError
// from any transaction aborts the pruning; callers fall back to ByUndo.
func ByCompensation(r *rewrite.Result, final model.State) (model.State, []*tx.Transaction, error) {
	cur := final.Clone()
	comps := make([]*tx.Transaction, 0, r.Rewritten.Len()-r.PrefixLen)
	for i := r.Rewritten.Len() - 1; i >= r.PrefixLen; i-- {
		ent := r.Rewritten.Entries[i]
		if !ent.Fix.Items().Disjoint(ent.T.StaticWriteSet()) {
			return nil, nil, fmt.Errorf(
				"prune: fix of %s pins written items; Lemma 4 precondition violated", ent.T.ID)
		}
		inv, err := tx.Invert(ent.T)
		if err != nil {
			return nil, nil, fmt.Errorf("prune: compensate %s: %w", ent.T.ID, err)
		}
		if _, err := inv.ExecInPlace(cur, ent.Fix); err != nil {
			return nil, nil, fmt.Errorf("prune: run %s: %w", inv.ID, err)
		}
		comps = append(comps, inv)
	}
	return cur, comps, nil
}

// URA is an undo-repair action built by Algorithm 3 for one saved affected
// transaction.
type URA struct {
	// For is the affected transaction the action repairs.
	For *tx.Transaction
	// Action is the repair transaction to execute (possibly empty-bodied
	// when the whole effect survived the undo).
	Action *tx.Transaction
}

// ByUndo prunes the rewritten history by the undo approach: it restores the
// logged before-images of every transaction in H_e − H_r (in reverse of
// their original order), builds the undo-repair actions of Algorithm 3 for
// the affected transactions saved into H_r, and executes them in H_r order.
// It returns the repaired state and the actions it ran.
func ByUndo(r *rewrite.Result, final model.State) (model.State, []URA, error) {
	cur := final.Clone()
	a := r.Original

	// Undone set: original positions of the transactions kept in the tail.
	undone := make(map[int]bool)
	for i := r.PrefixLen; i < r.Rewritten.Len(); i++ {
		undone[r.OrigPos[i]] = true
	}
	// Physical undo in reverse original order: each item ends at the
	// before-image of its earliest undone writer.
	undoOrder := make([]int, 0, len(undone))
	for p := range undone {
		undoOrder = append(undoOrder, p)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(undoOrder)))
	for _, p := range undoOrder {
		for _, w := range a.Effects[p].Items {
			if w.Written {
				cur.Set(w.Item, w.Before)
			}
		}
	}

	// writersBAG[it] lists the original positions in B ∪ AG that updated it.
	inBAG := make(map[int]bool)
	for p := range r.Bad {
		inBAG[p] = true
	}
	for p := range r.Affected {
		inBAG[p] = true
	}
	writersBAG := make(map[model.Item][]int)
	for p := range inBAG {
		for _, w := range a.Effects[p].Items {
			if w.Written {
				writersBAG[w.Item] = append(writersBAG[w.Item], p)
			}
		}
	}
	for it := range writersBAG {
		sort.Ints(writersBAG[it])
	}

	// Undo-repair actions for the affected transactions in H_r, in H_r
	// order (which preserves their original order).
	var uras []URA
	for i := 0; i < r.PrefixLen; i++ {
		p := r.OrigPos[i]
		if !r.Affected[p] {
			continue
		}
		action, err := BuildURA(r, p, writersBAG)
		if err != nil {
			return nil, nil, err
		}
		if _, err := action.ExecInPlace(cur, nil); err != nil {
			return nil, nil, fmt.Errorf("prune: run %s: %w", action.ID, err)
		}
		uras = append(uras, URA{For: a.H.Txn(p), Action: action})
	}
	return cur, uras, nil
}

// BuildURA is Algorithm 3: it constructs the undo-repair action for the
// affected transaction at original position k. writersBAG maps each item to
// the sorted original positions of its writers within B ∪ AG.
//
// Per the algorithm, an update statement x := f(x, y1...yn) of the affected
// transaction becomes:
//
//   - nothing, when no other transaction in B ∪ AG updated x (the undo
//     never disturbed x, so the original effect survives);
//   - x := afterstate.x, when only B ∪ AG transactions *after* k updated x
//     (their undo rolled x back to exactly k's original after-image);
//   - a re-execution of f with every operand that was untouched by earlier
//     B ∪ AG transactions (and by earlier statements of the action itself)
//     bound to its logged before-state value, otherwise read live — live
//     reads see values already repaired by earlier undo-repair actions.
//
// Read statements that no longer feed any update are dropped (step 3); in
// this engine read statements never affect state, so they are dropped
// wholesale.
func BuildURA(r *rewrite.Result, k int, writersBAG map[model.Item][]int) (*tx.Transaction, error) {
	a := r.Original
	t := a.H.Txn(k)

	otherWriter := func(it model.Item) bool {
		for _, w := range writersBAG[it] {
			if w != k {
				return true
			}
		}
		return false
	}
	earlierWriter := func(it model.Item) bool {
		for _, w := range writersBAG[it] {
			if w >= k {
				break
			}
			return true
		}
		return false
	}

	var build func(body []tx.Stmt, written model.ItemSet) []tx.Stmt
	build = func(body []tx.Stmt, written model.ItemSet) []tx.Stmt {
		var out []tx.Stmt
		for _, s := range body {
			switch st := s.(type) {
			case *tx.ReadStmt:
				// dropped (step 3): reads bind no state in this engine
			case *tx.UpdateStmt, *tx.AssignStmt:
				var it model.Item
				var e expr.Expr
				if u, ok := st.(*tx.UpdateStmt); ok {
					it, e = u.Item, u.Expr
				} else {
					u := st.(*tx.AssignStmt)
					it, e = u.Item, u.Expr
				}
				switch {
				case !otherWriter(it):
					// case 1: effect survived the undo untouched
				case !earlierWriter(it):
					// case 2: undo rolled it back to k's own after-image
					out = append(out, tx.Assign(it, expr.Const(a.ValueBefore(k+1, it))))
					written.Add(it)
				default:
					// case 3: re-execute f with every stable operand
					// (including the target's own base read) bound to its
					// logged before-state value; unstable operands read
					// live, seeing values already repaired by the undo and
					// by earlier undo-repair actions.
					operands := expr.ItemsOf(e)
					operands.Add(it)
					bound := e
					for y := range operands {
						if !written.Has(y) && !earlierWriter(y) {
							bound = bound.Subst(y, expr.Const(a.ValueBefore(k, y)))
						}
					}
					out = append(out, tx.Assign(it, bound))
					written.Add(it)
				}
			case *tx.IfStmt:
				thenW := written.Clone()
				thenB := build(st.Then, thenW)
				elseW := written.Clone()
				elseB := build(st.Else, elseW)
				// Bind stable condition operands to their logged values so
				// the action takes the branch the repaired history takes.
				cond := st.Cond
				if len(thenB) > 0 || len(elseB) > 0 {
					out = append(out, tx.IfElse(cond, thenB, elseB))
				}
				for it := range thenW.Union(elseW) {
					written.Add(it)
				}
			default:
				// unreachable: validated statement set
			}
		}
		return out
	}

	body := build(t.Body, make(model.ItemSet))
	action := &tx.Transaction{
		ID:     "URA(" + t.ID + ")",
		Type:   t.Type,
		Kind:   t.Kind,
		Params: t.Params,
		Body:   body,
	}
	if err := action.Validate(); err != nil {
		return nil, fmt.Errorf("prune: URA for %s invalid: %w", t.ID, err)
	}
	return action, nil
}
