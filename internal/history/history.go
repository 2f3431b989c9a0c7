// Package history implements serial execution histories and the augmented
// histories of Section 3: sequences of interleaved transactions and database
// states, beginning and ending with a state (kept as the origin, the write
// images and the final state). It also provides the reads-from relation and
// its transitive closure (the affected set AG), and the final-state
// equivalence predicate (the equivalence notion every rewriting step must
// preserve).
package history

import (
	"fmt"
	"strings"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Entry is one position of a history: a transaction together with its fix.
// Ordinary serializable histories carry the empty fix at every position
// (Section 3); rewriting introduces non-empty fixes.
type Entry struct {
	T   *tx.Transaction
	Fix tx.Fix
}

// History is a serial history H^s: an ordered list of entries.
type History struct {
	Entries []Entry
}

// New builds a history over the given transactions, all with empty fixes.
func New(txns ...*tx.Transaction) *History {
	h := &History{Entries: make([]Entry, len(txns))}
	for i, t := range txns {
		h.Entries[i] = Entry{T: t}
	}
	return h
}

// Len returns the number of transactions.
func (h *History) Len() int { return len(h.Entries) }

// Txn returns the i-th transaction.
func (h *History) Txn(i int) *tx.Transaction { return h.Entries[i].T }

// Append adds a transaction with an empty fix and returns h.
func (h *History) Append(t *tx.Transaction) *History {
	h.Entries = append(h.Entries, Entry{T: t})
	return h
}

// Clone copies the history (entries and fixes; transactions are shared).
func (h *History) Clone() *History {
	c := &History{Entries: make([]Entry, len(h.Entries))}
	for i, e := range h.Entries {
		c.Entries[i] = Entry{T: e.T, Fix: e.Fix.Clone()}
	}
	return c
}

// Prefix returns a new history holding the first n entries.
func (h *History) Prefix(n int) *History {
	c := &History{Entries: make([]Entry, n)}
	copy(c.Entries, h.Entries[:n])
	return c
}

// Suffix returns a new history holding the entries from position n on.
func (h *History) Suffix(n int) *History {
	c := &History{Entries: make([]Entry, len(h.Entries)-n)}
	copy(c.Entries, h.Entries[n:])
	return c
}

// IDs returns the transaction IDs in order.
func (h *History) IDs() []string {
	ids := make([]string, len(h.Entries))
	for i, e := range h.Entries {
		ids[i] = e.T.ID
	}
	return ids
}

// IndexOf returns the position of the transaction with the given ID, or -1.
func (h *History) IndexOf(id string) int {
	for i, e := range h.Entries {
		if e.T.ID == id {
			return i
		}
	}
	return -1
}

// SameTransactionSet reports whether the two histories are over exactly the
// same set of transaction instances (by pointer identity).
func (h *History) SameTransactionSet(o *History) bool {
	if h.Len() != o.Len() {
		return false
	}
	seen := make(map[*tx.Transaction]int, h.Len())
	for _, e := range h.Entries {
		seen[e.T]++
	}
	for _, e := range o.Entries {
		seen[e.T]--
		if seen[e.T] < 0 {
			return false
		}
	}
	return true
}

// String renders the history as "T1 T2^{x} T3 ...", marking non-empty fixes.
func (h *History) String() string {
	parts := make([]string, len(h.Entries))
	for i, e := range h.Entries {
		if e.Fix.IsEmpty() {
			parts[i] = e.T.ID
		} else {
			parts[i] = e.T.ID + "^" + e.Fix.String()
		}
	}
	return strings.Join(parts, " ")
}

// Augmented is an augmented history (Section 3), s0 T1 s1 T2 s2 …, kept as
// its origin s0, the effect log of each execution and the final state. An
// intermediate state follows from the origin and the write images before it
// (ValueBefore, StateAt), so a run holds O(|Origin| + Σ writes) of state, not
// O(Len × |state|). Origin aliases the state the run started from and the
// final state is the working copy the entries ran on in place: callers must
// mutate neither.
type Augmented struct {
	H       *History
	Origin  model.State
	Effects []*tx.Effect
	final   model.State
}

// Run executes the history serially, in place on one clone of s0, and
// returns the augmented history. s0 is not modified but becomes Origin, so
// the caller must not mutate it afterwards.
func Run(h *History, s0 model.State) (*Augmented, error) {
	a := &Augmented{H: h, Origin: s0, Effects: make([]*tx.Effect, h.Len()), final: s0.Clone()}
	for i, e := range h.Entries {
		eff, err := e.T.ExecInPlace(a.final, e.Fix)
		if err != nil {
			return nil, fmt.Errorf("history: position %d (%s): %w", i, e.T.ID, err)
		}
		a.Effects[i] = eff
	}
	return a, nil
}

// Start returns the augmented run of the empty history from s0, ready for
// Append. The aliasing contract of Run applies to s0.
func Start(s0 model.State) *Augmented {
	return &Augmented{H: &History{}, Origin: s0, final: s0.Clone()}
}

// Append runs t (empty fix) in place on the final state and appends it. On
// error the run is unchanged: tx.ExecInPlace is atomic.
func (a *Augmented) Append(t *tx.Transaction) (*tx.Effect, error) {
	eff, err := t.ExecInPlace(a.final, nil)
	if err != nil {
		return nil, err
	}
	a.H.Append(t)
	a.Effects = append(a.Effects, eff)
	return eff, nil
}

// Rewind empties the run in place, restoring the final state to the origin
// by undoing the write images: O(Σ writes), not a copy of the state. Final
// and Effects taken before must not be used afterwards.
func (a *Augmented) Rewind() {
	for _, eff := range a.Effects {
		for it := range eff.Writes {
			if v, ok := a.Origin[it]; ok {
				a.final[it] = v
			} else {
				delete(a.final, it)
			}
		}
	}
	a.H, a.Effects = &History{}, nil
}

// Final returns the final state: the run's working state, not a copy.
func (a *Augmented) Final() model.State { return a.final }

// ValueBefore returns the value of it in the state immediately preceding
// position i (i = Len gives the final state): the write image of its last
// writer before i, else its origin value. It copies no state.
func (a *Augmented) ValueBefore(i int, it model.Item) model.Value {
	for j := i - 1; j >= 0; j-- {
		if v, ok := a.Effects[j].Writes[it]; ok {
			return v
		}
	}
	return a.Origin.Get(it)
}

// StateAt materializes the state immediately preceding position i — the
// origin with the write images of positions < i applied. It copies a whole
// state; it serves tests and oracles, while hot paths use ValueBefore.
func (a *Augmented) StateAt(i int) model.State {
	s := a.Origin.Clone()
	for _, eff := range a.Effects[:i] {
		s.Apply(eff.Writes)
	}
	return s
}

// FinalStateEquivalent reports whether h1 and h2, executed from s0, are
// final state equivalent (Section 3): they are over the same set of
// transactions and produce identical final states. Execution errors
// propagate.
func FinalStateEquivalent(h1, h2 *History, s0 model.State) (bool, error) {
	if !h1.SameTransactionSet(h2) {
		return false, nil
	}
	a1, err := Run(h1, s0)
	if err != nil {
		return false, fmt.Errorf("history: run h1: %w", err)
	}
	a2, err := Run(h2, s0)
	if err != nil {
		return false, fmt.Errorf("history: run h2: %w", err)
	}
	return a1.Final().Equal(a2.Final()), nil
}
