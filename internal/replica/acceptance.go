package replica

import (
	"fmt"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Acceptance decides whether a re-executed tentative transaction's base
// outcome is acceptable. Two-tier replication's contract (inherited from
// [GHOS96], and restated by the paper: "here we assume that the differences
// between the result of a tentative transaction in Hm and that in the
// merged history are acceptable") is that tentative results are provisional
// — the base re-execution may differ, and an application-supplied
// acceptance criterion decides how much difference the user tolerates.
// Rejected re-executions are not committed; they are reported to the user
// as failed, with the reason.
//
// tentative is the effect the transaction had on the mobile replica; base
// is the effect the re-execution would have on master data. A nil
// Acceptance accepts everything.
type Acceptance func(t *tx.Transaction, tentative, base *tx.Effect) error

// AcceptSameWrites accepts only re-executions that write exactly the values
// the tentative run wrote — the strictest criterion; any interleaved
// conflicting work rejects.
func AcceptSameWrites(t *tx.Transaction, tentative, base *tx.Effect) error {
	return sameWriteSets(tentative, base, func(it model.Item, tv, bv model.Value) error {
		if bv != tv {
			return fmt.Errorf("%s: tentative %d, base %d", it, tv, bv)
		}
		return nil
	})
}

// sameWriteSets checks that the tentative and the base run wrote the same
// items, calling f with each item's two written values.
func sameWriteSets(tentative, base *tx.Effect, f func(it model.Item, tv, bv model.Value) error) error {
	for _, r := range tentative.Items {
		if !r.Written {
			continue
		}
		if b, _ := base.Lookup(r.Item); !b.Written {
			return fmt.Errorf("tentative wrote %s, base did not", r.Item)
		} else if err := f(r.Item, r.Value, b.Value); err != nil {
			return err
		}
	}
	for _, b := range base.Items {
		if r, _ := tentative.Lookup(b.Item); b.Written && !r.Written {
			return fmt.Errorf("base wrote %s, tentative did not", b.Item)
		}
	}
	return nil
}

// AcceptWithinDrift builds a criterion accepting re-executions whose
// written values deviate from the tentative values by at most tol per item
// (and whose written item sets agree) — e.g. a price that moved a little is
// fine, a flipped branch is not.
func AcceptWithinDrift(tol model.Value) Acceptance {
	return func(t *tx.Transaction, tentative, base *tx.Effect) error {
		return sameWriteSets(tentative, base, func(it model.Item, tv, bv model.Value) error {
			if d := max(bv-tv, tv-bv); d > tol {
				return fmt.Errorf("%s drifted by %d (> %d): tentative %d, base %d", it, d, tol, tv, bv)
			}
			return nil
		})
	}
}
