package rewrite

import (
	"fmt"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Block explains why a good transaction stayed in the tail: which blocked
// transaction it could not move past, and on which items the move test
// failed. Attached to Result.Blocked for diagnostics, CLIs and tests.
type Block struct {
	// Blocker is the ID of the first tail transaction the move failed
	// against (scanning right-to-left from the moved transaction, as the
	// algorithms do).
	Blocker string
	// ReadItems are the moved transaction's reads that the blocker writes
	// (the can-follow violation: the blocker cannot follow it).
	ReadItems model.ItemSet
	// WriteItems are write-write collisions with the blocker (only under
	// blind-write rewriting; empty otherwise, where write sets are covered
	// by ReadItems).
	WriteItems model.ItemSet
	// PrecedeTried reports whether a can-precede check also ran (Algorithm
	// 2 / CBTR) and failed.
	PrecedeTried bool
}

// String renders the reason compactly.
func (b Block) String() string {
	s := "blocked by " + b.Blocker
	if len(b.ReadItems) > 0 {
		s += fmt.Sprintf(" (reads %s written by it", b.ReadItems)
		if b.PrecedeTried {
			s += "; can-precede failed"
		}
		s += ")"
	} else if len(b.WriteItems) > 0 {
		s += fmt.Sprintf(" (overwrite collision on %s)", b.WriteItems)
	} else if b.PrecedeTried {
		s += " (can-precede failed)"
	}
	return s
}

// explainBlock derives the Block for a failed move of t past blk under the
// given capabilities.
func explainBlock(t, blk *entry, precedeTried, blindAware bool) Block {
	b := Block{Blocker: blk.e.T.ID, PrecedeTried: precedeTried}
	add := func(set *model.ItemSet, it model.Item) {
		if *set == nil {
			*set = make(model.ItemSet)
		}
		set.Add(it)
	}
	tx.AnyShared(blk.eff, t.eff, func(w, x tx.ItemEffect) bool {
		switch {
		case w.Written && x.Read:
			add(&b.ReadItems, x.Item)
		case w.Written && x.Written && blindAware:
			add(&b.WriteItems, x.Item)
		}
		return false
	})
	return b
}

// ExplainIDs renders the Result's blocked map as "id: reason" lines in
// original history order.
func (r *Result) ExplainIDs() []string {
	if len(r.Blocked) == 0 {
		return nil
	}
	var out []string
	for pos := 0; pos < r.Original.H.Len(); pos++ {
		if b, ok := r.Blocked[pos]; ok {
			out = append(out, fmt.Sprintf("%s: %s", r.Original.H.Txn(pos).ID, b))
		}
	}
	return out
}
