package history

import (
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// The paper assumes the tentative history "is serializable and there is an
// explicit serial history H^s of it" (Section 3); on a mobile node that
// holds by construction (transactions run one at a time, so the execution
// order itself is the serial witness). This file provides the conflict
// graph of an executed history and utilities over candidate serial orders:
// which reorderings are conflict-equivalent to the execution, and therefore
// guaranteed to reproduce its final state. The rewriting algorithms go
// beyond conflict equivalence — that is their point ("two final state
// equivalent histories might not be conflict equivalent") — and these
// utilities give tests the baseline to compare against.

// ConflictEdge records that the transaction at position From must precede
// the one at position To in any conflict-equivalent serial order: they
// access a common item, at least one writes it, and From executed first.
type ConflictEdge struct {
	From, To int
	Item     model.Item
}

// ConflictEdges computes the conflict relation of the executed history.
func ConflictEdges(a *Augmented) []ConflictEdge {
	var edges []ConflictEdge
	n := a.H.Len()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// Both touched the item: they conflict when either wrote it.
			tx.AnyShared(a.Effects[i], a.Effects[j], func(x, y tx.ItemEffect) bool {
				if x.Written || y.Written {
					edges = append(edges, ConflictEdge{From: i, To: j, Item: x.Item})
				}
				return false
			})
		}
	}
	return edges
}

// ValidSerialization reports whether the candidate order (a permutation of
// history positions) respects every conflict edge of the executed history —
// i.e. whether executing the transactions in that order is conflict
// equivalent to the original execution. Conflict-equivalent orders always
// reproduce the original final state; orders rejected here may or may not
// (final-state equivalence is the strictly weaker notion the rewriting
// algorithms exploit via fixes).
func ValidSerialization(a *Augmented, order []int) bool {
	n := a.H.Len()
	if len(order) != n {
		return false
	}
	posOf := make([]int, n)
	seen := make([]bool, n)
	for idx, p := range order {
		if p < 0 || p >= n || seen[p] {
			return false
		}
		seen[p] = true
		posOf[p] = idx
	}
	for _, e := range ConflictEdges(a) {
		if posOf[e.From] > posOf[e.To] {
			return false
		}
	}
	return true
}

// Permute returns a new history with the entries reordered by order (a
// permutation of positions).
func (h *History) Permute(order []int) *History {
	out := &History{Entries: make([]Entry, len(order))}
	for i, p := range order {
		out.Entries[i] = h.Entries[p]
	}
	return out
}
