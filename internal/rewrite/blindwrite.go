package rewrite

import (
	"fmt"

	"tiermerge/internal/history"
	"tiermerge/internal/tx"
)

// This file implements the adaptation the paper mentions but does not
// present: "Although the rewriting approach can be adapted to blind writes,
// doing so complicates the presentation" (Section 3). The complication is
// that write sets are no longer contained in read sets, so the can-follow
// test must rule out write-write collisions explicitly:
//
//	blk can follow t  iff  blk.writeset ∩ t.readset  = ∅
//	                  and  blk.writeset ∩ t.writeset = ∅
//
// Without blind writes the second conjunct is implied by the first (t reads
// everything it writes), so CanFollowBW degenerates to Definition 3 exactly.
//
// The saved set changes accordingly: a good transaction stays in the tail
// iff some tail member writes an item it reads (a reads-from dependency) or
// writes an item it also writes (an overwrite collision: swapping would flip
// which value survives). The prefix therefore equals G minus the transitive
// closure of the reads-from-or-overwrite relation — a subset of what the
// closure back-out saves, because a blind overwrite of a bad transaction's
// item does not *read* from it and the closure approach can keep it:
//
//	saved(Algorithm1BW) ⊆ saved(ClosureBackout)    with blind writes,
//	saved(Algorithm1BW) = saved(Algorithm1)        without.
//
// What the rewriting buys over the closure in exchange is the extended
// history H_e: the tail keeps executable, fix-decorated entries, so pruning
// can run by undo (and by compensation where inverses exist) instead of by
// log-value restoration, and the repaired history remains a prefix of a
// final-state-equivalent whole (Definition 2).

// CanFollowBW is the blind-write-safe can-follow test.
func CanFollowBW(blk, t *tx.Effect) bool {
	return !tx.AnyShared(blk, t, func(b, _ tx.ItemEffect) bool { return b.Written })
}

// Algorithm1BW is can-follow rewriting generalized to histories containing
// blind writes. On blind-write-free histories it produces exactly
// Algorithm 1's result.
func Algorithm1BW(a *history.Augmented, bad map[int]bool) (*Result, error) {
	return rewriteWithBW("can-follow-bw", a, bad, func(t, blk *entry) bool {
		if !CanFollowBW(blk.eff, t.eff) {
			return false
		}
		mergeFixIncrement(t, blk)
		return true
	}, func(t, blk *entry) Block { return explainBlock(t, blk, false, true) })
}

// rewriteWithBW is rewriteWith minus the blind-write rejection.
func rewriteWithBW(name string, a *history.Augmented, bad map[int]bool, rule moveRule, explain explainFn) (*Result, error) {
	n := a.H.Len()
	for i := 0; i < n; i++ {
		if !a.H.Entries[i].Fix.IsEmpty() {
			return nil, fmt.Errorf("rewrite: original history has non-empty fix at %d", i)
		}
	}
	head := make([]entry, 0, n)
	// The working arrangement is double-buffered: each candidate move is
	// trial-run against a scratch copy of the tail, and on success the two
	// buffers swap roles. Both backing arrays are preallocated at n, so the
	// O(n²) scan performs no per-candidate slice allocation (fix clones
	// still allocate, but only for tail members carrying non-empty fixes).
	tail := make([]entry, 0, n)
	scratch := make([]entry, 0, n)
	blocked := make(map[int]Block)
	pairChecks := 0
	for i := 0; i < n; i++ {
		ent := entry{orig: i, e: history.Entry{T: a.H.Txn(i)}, eff: a.Effects[i]}
		if len(tail) == 0 && !bad[i] {
			head = append(head, ent)
			continue
		}
		if bad[i] {
			tail = append(tail, ent)
			continue
		}
		tailCopy := append(scratch[:0], tail...)
		for j := range tailCopy {
			tailCopy[j].e.Fix = tail[j].e.Fix.Clone()
		}
		movable := true
		for j := len(tailCopy) - 1; j >= 0; j-- {
			pairChecks++
			if !rule(&ent, &tailCopy[j]) {
				movable = false
				if explain != nil {
					blocked[ent.orig] = explain(&ent, &tailCopy[j])
				}
				break
			}
		}
		if movable {
			head = append(head, ent)
			tail, scratch = tailCopy, tail
		} else {
			tail = append(tail, ent)
		}
	}
	res := &Result{
		Original:   a,
		Rewritten:  &history.History{},
		PrefixLen:  len(head),
		Bad:        bad,
		Affected:   history.AffectedSet(a, bad),
		Blocked:    blocked,
		PairChecks: pairChecks,
		Algorithm:  name,
	}
	for _, ent := range append(head, tail...) {
		res.Rewritten.Entries = append(res.Rewritten.Entries, ent.e)
		res.OrigPos = append(res.OrigPos, ent.orig)
	}
	return res, nil
}
