// Package model defines the primitive database vocabulary shared by every
// subsystem: data items, values, database states and item sets.
//
// The paper's database is a flat collection of named data items (d1, d2, ...)
// holding scalar values. A State is one whole database state: a replica, a
// master copy, or an origin. The "augmented history" states of Section 3
// interleaved with transactions are not stored one State per position:
// internal/history keeps the origin, the write images and the final state,
// and derives the rest.
package model

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Item names a replicated data item (the paper's d1, d2, ..., x, y, z).
type Item string

// Value is the scalar content of a data item. The paper's examples are all
// integer arithmetic; int64 keeps commutativity and inversion exact (no
// floating-point drift).
type Value int64

// State is a full database state: a total assignment of values to items.
// Items absent from the map are implicitly zero, mirroring a freshly
// initialized replica.
type State map[Item]Value

// NewState returns an empty state.
func NewState() State { return make(State) }

// StateOf builds a state from a literal map, copying it so the caller's map
// stays independent.
func StateOf(m map[Item]Value) State {
	s := make(State, len(m))
	maps.Copy(s, m)
	return s
}

// Get returns the value of item (zero when unset).
func (s State) Get(it Item) Value { return s[it] }

// Set assigns the value of item.
func (s State) Set(it Item, v Value) { s[it] = v }

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	c := make(State, len(s))
	maps.Copy(c, s)
	return c
}

// Equal reports whether two states assign the same value to every item.
// Missing entries compare equal to explicit zeros, so states that differ
// only in which zero-valued items they materialize are considered equal.
func (s State) Equal(o State) bool {
	for k, v := range s {
		if o[k] != v {
			return false
		}
	}
	for k, v := range o {
		if s[k] != v {
			return false
		}
	}
	return true
}

// Diff returns the items whose values differ between s and o, with o's
// values. It answers "what would I have to write into s to obtain o".
func (s State) Diff(o State) map[Item]Value {
	d := make(map[Item]Value)
	for k, v := range o {
		if s[k] != v {
			d[k] = v
		}
	}
	for k := range s {
		if _, ok := o[k]; !ok && s[k] != 0 {
			d[k] = 0
		}
	}
	return d
}

// Apply writes every entry of updates into the state and returns s for
// chaining.
func (s State) Apply(updates map[Item]Value) State {
	maps.Copy(s, updates)
	return s
}

// Items returns the sorted item names present in the state.
func (s State) Items() []Item {
	its := make([]Item, 0, len(s))
	for k := range s {
		its = append(its, k)
	}
	slices.Sort(its)
	return its
}

// String renders the state deterministically, e.g. {x=1; y=7}.
func (s State) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s.Items() {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s=%d", it, s[it])
	}
	b.WriteByte('}')
	return b.String()
}

// ItemSet is a set of item names, used for read sets and write sets.
type ItemSet map[Item]struct{}

// NewItemSet builds a set from the given items.
func NewItemSet(items ...Item) ItemSet {
	s := make(ItemSet, len(items))
	for _, it := range items {
		s[it] = struct{}{}
	}
	return s
}

// Add inserts an item.
func (s ItemSet) Add(it Item) { s[it] = struct{}{} }

// Has reports membership.
func (s ItemSet) Has(it Item) bool {
	_, ok := s[it]
	return ok
}

// Union returns a new set containing the members of both sets.
func (s ItemSet) Union(o ItemSet) ItemSet {
	u := make(ItemSet, len(s)+len(o))
	maps.Copy(u, s)
	maps.Copy(u, o)
	return u
}

// Intersect returns a new set with the members common to both sets.
func (s ItemSet) Intersect(o ItemSet) ItemSet {
	small, big := s, o
	if len(big) < len(small) {
		small, big = big, small
	}
	r := make(ItemSet)
	for k := range small {
		if big.Has(k) {
			r[k] = struct{}{}
		}
	}
	return r
}

// Minus returns a new set with o's members removed from s.
func (s ItemSet) Minus(o ItemSet) ItemSet {
	r := make(ItemSet)
	for k := range s {
		if !o.Has(k) {
			r[k] = struct{}{}
		}
	}
	return r
}

// Disjoint reports whether the sets share no member.
func (s ItemSet) Disjoint(o ItemSet) bool {
	small, big := s, o
	if len(big) < len(small) {
		small, big = big, small
	}
	for k := range small {
		if big.Has(k) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s ItemSet) Clone() ItemSet {
	c := make(ItemSet, len(s))
	maps.Copy(c, s)
	return c
}

// Items returns the sorted members.
func (s ItemSet) Items() []Item {
	its := make([]Item, 0, len(s))
	for k := range s {
		its = append(its, k)
	}
	sort.Slice(its, func(i, j int) bool { return its[i] < its[j] })
	return its
}

// String renders the set deterministically, e.g. {d1, d2}.
func (s ItemSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, it := range s.Items() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(it))
	}
	b.WriteByte('}')
	return b.String()
}
