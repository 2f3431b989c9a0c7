// Package rewrite implements the paper's rewriting model (Section 3) and
// rewriting algorithms (Sections 4 and 5):
//
//   - can-follow rewriting (Algorithm 1), which moves every transaction in
//     G−AG in front of the bad block while keeping the rewritten history
//     final-state equivalent to the original by maintaining fixes (Lemma 1,
//     with the Lemma 2 readset−writeset shortcut);
//   - can-follow + can-precede rewriting (Algorithm 2), which additionally
//     exploits transaction semantics (commutativity in the presence of
//     fixes, Definition 4) to save affected transactions as well;
//   - commutes-backward-through rewriting (CBTR), the pure-commutativity
//     baseline of Theorem 4;
//   - the reads-from transitive-closure back-out (the Davidson baseline of
//     Theorem 3).
package rewrite

import (
	"errors"
	"fmt"
	"sort"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// ErrBlindWrites is returned when a history contains blind writes; the
// rewriting model of Section 3 assumes they are absent.
var ErrBlindWrites = errors.New("rewrite: history contains blind writes")

// Result is the outcome of rewriting a tentative history against a bad set.
type Result struct {
	// Original is the augmented history the rewrite started from.
	Original *history.Augmented
	// Rewritten is H_e: the full rewritten history with fixes. Its first
	// PrefixLen entries form the repaired history H_r.
	Rewritten *history.History
	// PrefixLen is |H_r|, the number of saved transactions.
	PrefixLen int
	// OrigPos maps each rewritten position to the transaction's position in
	// the original history.
	OrigPos []int
	// Bad is the input back-out set as original positions.
	Bad map[int]bool
	// Affected is AG: the reads-from closure of Bad in the original history
	// (original positions), computed for reporting and for Theorem 3 checks.
	Affected map[int]bool
	// Blocked explains, for each good transaction left in the tail (by
	// original position), which blocker stopped its move and why.
	Blocked map[int]Block
	// PairChecks counts the pairwise move tests performed — the actual
	// work behind the O(n²) bound Section 7.1 quotes; the cost model
	// charges it as MobileRewriteOps.
	PairChecks int
	// Algorithm names the rewriter that produced the result.
	Algorithm string
}

// Repaired returns H_r, the repaired prefix.
func (r *Result) Repaired() *history.History { return r.Rewritten.Prefix(r.PrefixLen) }

// SavedIDs returns the IDs of the saved (prefix) transactions in order.
func (r *Result) SavedIDs() []string { return r.Repaired().IDs() }

// SavedSet returns the saved transactions as a set of IDs — the FPR/CBTR
// sets of Theorem 4.
func (r *Result) SavedSet() map[string]bool {
	s := make(map[string]bool, r.PrefixLen)
	for _, id := range r.SavedIDs() {
		s[id] = true
	}
	return s
}

// entry is one position of the working arrangement during a rewrite.
type entry struct {
	orig int
	e    history.Entry
	eff  *tx.Effect
}

// moveRule decides whether the scanned good transaction t may be pushed left
// past blocked transaction blk, and applies any fix bookkeeping to blk.
// Returns false to leave t in place.
type moveRule func(t *entry, blk *entry) bool

// rewriteWith is the shared skeleton of Algorithms 1, 2 and CBTR: scan
// forward from the first good transaction after B1; leave bad transactions
// in the tail; move a good transaction in front of B1 when rule allows it
// past every transaction currently between B1 and it. The blind-write
// rejection implements the Section 3 model assumption; Algorithm1BW
// (blindwrite.go) provides the generalized variant.
func rewriteWith(name string, a *history.Augmented, bad map[int]bool, rule moveRule, explain explainFn) (*Result, error) {
	for i := 0; i < a.H.Len(); i++ {
		if a.H.Txn(i).HasBlindWrites() {
			return nil, fmt.Errorf("%w: %s", ErrBlindWrites, a.H.Txn(i).ID)
		}
	}
	return rewriteWithBW(name, a, bad, rule, explain)
}

// explainFn derives the diagnostic Block for a failed move of t past blk.
type explainFn func(t, blk *entry) Block

// CanFollow is Definition 3 specialized to one blocked transaction: blk can
// follow t iff blk writes nothing t reads. (Property 4 of the definition —
// T can follow a sequence iff it can follow every member — lets the
// algorithms test the block member-by-member.)
func CanFollow(blk, t *tx.Effect) bool {
	return !tx.AnyShared(blk, t, func(b, x tx.ItemEffect) bool { return b.Written && x.Read })
}

// mergeFixIncrement applies the Lemma 1 fix update for pushing t left past
// blk: blk's fix gains the values blk originally read for the items t
// writes. When blk read nothing t writes the increment is empty, so the
// FixFor/Merge round-trip (two map allocations per pair check on the O(n²)
// hot path) is skipped outright.
func mergeFixIncrement(t, blk *entry) {
	if !tx.AnyShared(blk.eff, t.eff, func(b, x tx.ItemEffect) bool { return b.Read && x.Written }) {
		return
	}
	inc := blk.eff.FixFor(func(b tx.ItemEffect) bool {
		x, ok := t.eff.Lookup(b.Item)
		return ok && b.Read && x.Written
	})
	blk.e.Fix = blk.e.Fix.Merge(inc)
}

// Algorithm1 is the paper's can-follow rewriting. The produced prefix holds
// exactly G−AG (Theorem 2/3); every blocked transaction carries the fix
// accumulated by Lemma 1.
func Algorithm1(a *history.Augmented, bad map[int]bool) (*Result, error) {
	return rewriteWith("can-follow", a, bad, func(t, blk *entry) bool {
		if !CanFollow(blk.eff, t.eff) {
			return false
		}
		mergeFixIncrement(t, blk)
		return true
	}, func(t, blk *entry) Block { return explainBlock(t, blk, false, false) })
}

// PrecedeDetector decides the can-precede relation of Definition 4: t2 can
// precede t1 under fix: for every assignment of values to the fixed
// variables and every state on which t1^fix t2 is defined, t2 t1^fix is
// defined and produces the same final state.
type PrecedeDetector interface {
	// CanPrecede reports whether t2 can precede t1^fix.
	CanPrecede(t2, t1 *tx.Transaction, fix tx.Fix) bool
	// Name identifies the detector in reports.
	Name() string
}

// Algorithm2 is the paper's can-follow and can-precede rewriting: a good
// transaction moves left past a blocked transaction either syntactically
// (can follow, with the Lemma 1 fix update) or semantically (can precede,
// no fix change). With a Property 1-respecting detector, the saved set is a
// superset of CBTR's (Theorem 4).
func Algorithm2(a *history.Augmented, bad map[int]bool, det PrecedeDetector) (*Result, error) {
	return rewriteWith("can-follow+can-precede", a, bad, func(t, blk *entry) bool {
		if CanFollow(blk.eff, t.eff) {
			mergeFixIncrement(t, blk)
			return true
		}
		return det.CanPrecede(t.e.T, blk.e.T, blk.e.Fix)
	}, func(t, blk *entry) Block { return explainBlock(t, blk, true, false) })
}

// CBTR is the rewriting algorithm based purely on commutes backward through:
// Algorithm 1 with can-follow replaced by the commutativity test and no fix
// maintenance (swapping commuting transactions preserves all downstream
// states directly). It is the comparison baseline of Theorem 4.
func CBTR(a *history.Augmented, bad map[int]bool, det PrecedeDetector) (*Result, error) {
	return rewriteWith("commutes-backward-through", a, bad, func(t, blk *entry) bool {
		return det.CanPrecede(t.e.T, blk.e.T, nil)
	}, func(t, blk *entry) Block { return explainBlock(t, blk, true, false) })
}

// ClosureBackout is the reads-from transitive-closure approach of
// [Dav84]: discard B ∪ AG outright and keep G−AG in original order. It
// returns the surviving history (the Theorem 3 baseline H_r) plus the
// affected set.
func ClosureBackout(a *history.Augmented, bad map[int]bool) (*history.History, map[int]bool) {
	affected := history.AffectedSet(a, bad)
	kept := &history.History{}
	for i := 0; i < a.H.Len(); i++ {
		if !bad[i] && !affected[i] {
			kept.Append(a.H.Txn(i))
		}
	}
	return kept, affected
}

// ApplyLemma2Fixes returns a copy of the rewritten history in which every
// non-empty fix F_i is replaced by F'_i = readset_i − writeset_i with the
// originally read values (Lemma 2). The replacement history is final-state
// equivalent to the input for Algorithm 1 results, and for Algorithm 2
// results when the system has Property 1 (Lemma 3).
func ApplyLemma2Fixes(r *Result) *history.History {
	out := r.Rewritten.Clone()
	for i := range out.Entries {
		if out.Entries[i].Fix.IsEmpty() {
			continue
		}
		eff := r.Original.Effects[r.OrigPos[i]]
		out.Entries[i].Fix = eff.FixFor(func(x tx.ItemEffect) bool { return x.Read && !x.Written })
	}
	return out
}

// BadIDs converts a bad-position set into sorted transaction IDs, for
// reports.
func BadIDs(a *history.Augmented, bad map[int]bool) []string {
	pos := make([]int, 0, len(bad))
	for p := range bad {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	ids := make([]string, len(pos))
	for i, p := range pos {
		ids[i] = a.H.Txn(p).ID
	}
	return ids
}

// statesOverlap is a tiny helper used by tests and detectors to build states
// covering the items two transactions touch.
func statesOverlap(ts ...*tx.Transaction) model.ItemSet {
	s := make(model.ItemSet)
	for _, t := range ts {
		for _, it := range t.Footprint() {
			s.Add(it)
		}
	}
	return s
}
