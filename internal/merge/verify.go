package merge

import (
	"fmt"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// MergedHistory constructs an explicit merged serial history H over the base
// transactions and the saved tentative transactions, respecting every
// precedence-graph edge among the survivors (Theorem 1 guarantees one exists
// once B is removed). Ties are broken base-transactions-first, which
// reproduces the paper's Example 1 ordering Tb1 Tb2 Tm1 Tm2.
//
// This is a verification artifact: the protocol itself never re-executes the
// merged history — it forwards updates instead — but tests use it to check
// that forwarding produces the state some legal merged history would.
func MergedHistory(rep *Report, hm, hb *history.Augmented) (*history.History, error) {
	g := rep.Graph
	saved := make(map[string]bool, len(rep.SavedIDs))
	for _, id := range rep.SavedIDs {
		saved[id] = true
	}
	kept := func(v int) bool {
		if v >= g.MobileLen {
			return true // base transactions always survive
		}
		return saved[g.ID(v)]
	}
	indeg := make([]int, g.Len())
	for v := 0; v < g.Len(); v++ {
		if !kept(v) {
			continue
		}
		for _, w := range g.Succ(v) {
			if kept(int(w)) {
				indeg[w]++
			}
		}
	}
	txnAt := func(v int) *tx.Transaction {
		if v < g.MobileLen {
			return hm.H.Txn(v)
		}
		return hb.H.Txn(v - g.MobileLen)
	}
	out := &history.History{}
	placed := make([]bool, g.Len())
	remaining := 0
	for v := 0; v < g.Len(); v++ {
		if kept(v) {
			remaining++
		}
	}
	for remaining > 0 {
		// Base-first tie-break: scan base vertices, then tentative ones,
		// each in history order.
		pick := -1
		for v := g.MobileLen; v < g.Len(); v++ {
			if kept(v) && !placed[v] && indeg[v] == 0 {
				pick = v
				break
			}
		}
		if pick == -1 {
			for v := 0; v < g.MobileLen; v++ {
				if kept(v) && !placed[v] && indeg[v] == 0 {
					pick = v
					break
				}
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("merge: surviving subgraph is cyclic; back-out set did not break all cycles")
		}
		placed[pick] = true
		remaining--
		out.Append(txnAt(pick))
		for _, w := range g.Succ(pick) {
			if kept(int(w)) && !placed[w] {
				indeg[w]--
			}
		}
	}
	return out, nil
}

// VerifyMerge checks the protocol's central soundness property on concrete
// data: applying the forwarded updates to the base tier's final state yields
// the same master state as executing some merged serial history of the base
// and saved tentative transactions from the shared origin state. It returns
// the merged history it validated against.
func VerifyMerge(rep *Report, hm, hb *history.Augmented, origin model.State) (*history.History, error) {
	merged, err := MergedHistory(rep, hm, hb)
	if err != nil {
		return nil, err
	}
	aug, err := history.Run(merged, origin)
	if err != nil {
		return nil, fmt.Errorf("merge: verify: run merged history: %w", err)
	}
	got := hb.Final().Clone()
	rep.ApplyForwards(got)
	if !aug.Final().Equal(got) {
		return nil, fmt.Errorf(
			"merge: verify: forwarded state %s != merged-history state %s (merged order %s)",
			got, aug.Final(), merged)
	}
	return merged, nil
}
