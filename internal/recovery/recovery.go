// Package recovery applies the rewriting machinery to the use case it grew
// out of: excising bad transactions from an already-committed history. The
// paper derives its algorithms from the authors' malicious-transaction
// recovery work ([AJL98], [LAJ99]) and notes the methods "can also be used
// to improve the performance of optimistic replication protocols in
// distributed database systems" — this package is that standalone mode:
// given a history and a set of transactions later found to be bad (an
// intrusion report, a buggy release's writes, an operator error), rewrite
// the history to move the bad transactions and the unsalvageable affected
// work to the end, prune, and land the database on the repaired state
// without re-executing the surviving transactions.
package recovery

import (
	"errors"
	"fmt"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/prune"
	"tiermerge/internal/rewrite"
	"tiermerge/internal/tx"
)

// ErrUnknownTransaction is returned when a bad ID does not occur in the
// history.
var ErrUnknownTransaction = errors.New("recovery: unknown transaction id")

// Options configures an excision.
type Options struct {
	// Detector decides can-precede (default rewrite.StaticDetector{}).
	Detector rewrite.PrecedeDetector
	// CanFollowOnly restricts the rewrite to Algorithm 1 — the mode for
	// systems whose transaction code is unavailable, where only
	// readset/writeset syntax can be trusted (Section 5.1's last case).
	CanFollowOnly bool
	// Verify re-executes the repaired history and compares (tests/debug).
	Verify bool
}

// Report is the outcome of an excision.
type Report struct {
	// Result is the underlying rewrite.
	Result *rewrite.Result
	// SavedIDs are the surviving transactions, in repaired order.
	SavedIDs []string
	// AffectedIDs are the reads-from closure of the bad set.
	AffectedIDs []string
	// ResubmitIDs are the non-bad transactions whose work was lost (the
	// affected transactions that could not be saved); users decide whether
	// to resubmit them.
	ResubmitIDs []string
	// RepairedState is the database state with the bad transactions' (and
	// lost affected transactions') effects removed.
	RepairedState model.State
	// PruneMethod records how the state was repaired.
	PruneMethod string
}

// Excise removes the transactions named in badIDs (and whatever affected
// work cannot be saved) from the committed history a, returning the
// repaired state computed from the current (final) state — not by
// re-execution.
func Excise(a *history.Augmented, badIDs []string, opts Options) (*Report, error) {
	if opts.Detector == nil {
		opts.Detector = rewrite.StaticDetector{}
	}
	bad := make(map[int]bool, len(badIDs))
	for _, id := range badIDs {
		pos := a.H.IndexOf(id)
		if pos < 0 {
			return nil, fmt.Errorf("%w: %s", ErrUnknownTransaction, id)
		}
		bad[pos] = true
	}

	var (
		res *rewrite.Result
		err error
	)
	if opts.CanFollowOnly {
		res, err = rewrite.Algorithm1(a, bad)
	} else {
		res, err = rewrite.Algorithm2(a, bad, opts.Detector)
	}
	if err != nil {
		return nil, fmt.Errorf("recovery: rewrite: %w", err)
	}

	state, method, err := pruneAuto(res, a.Final())
	if err != nil {
		return nil, fmt.Errorf("recovery: prune: %w", err)
	}

	rep := &Report{
		Result:        res,
		SavedIDs:      res.SavedIDs(),
		RepairedState: state,
		PruneMethod:   method,
	}
	for pos := range res.Affected {
		rep.AffectedIDs = append(rep.AffectedIDs, a.H.Txn(pos).ID)
	}
	sortStrings(rep.AffectedIDs)
	savedSet := res.SavedSet()
	for i := res.PrefixLen; i < res.Rewritten.Len(); i++ {
		id := res.Rewritten.Txn(i).ID
		if !bad[res.OrigPos[i]] && !savedSet[id] {
			rep.ResubmitIDs = append(rep.ResubmitIDs, id)
		}
	}
	sortStrings(rep.ResubmitIDs)

	if opts.Verify {
		oracle, err := history.Run(res.Repaired(), a.Origin)
		if err != nil {
			return nil, fmt.Errorf("recovery: verify: %w", err)
		}
		if !oracle.Final().Equal(state) {
			return nil, fmt.Errorf("recovery: verify: pruned %s != re-executed %s",
				state, oracle.Final())
		}
	}
	return rep, nil
}

// pruneAuto compensates where possible and falls back to undo.
func pruneAuto(res *rewrite.Result, final model.State) (model.State, string, error) {
	s, _, err := prune.ByCompensation(res, final)
	if err == nil {
		return s, "compensation", nil
	}
	var notInv *tx.NotInvertibleError
	if !errors.As(err, &notInv) {
		return nil, "", err
	}
	s, _, err = prune.ByUndo(res, final)
	return s, "undo", err
}

// sortStrings is a tiny insertion sort; ID lists are short.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
