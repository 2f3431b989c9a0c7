// Package itemsetalias exercises the itemsetalias analyzer: containers
// received from outside a function must be Cloned before mutation.
package itemsetalias

import "tiermerge/internal/model"

type effect struct {
	Reads  model.ItemSet
	Writes model.ItemSet
}

// readSet exposes the effect's read set without copying.
//
//tiermerge:shared
func (e *effect) readSet() model.ItemSet { return e.Reads }

func recordRead(set model.ItemSet, it model.Item) {
	set.Add(it) // want "Add mutates a model container that aliases shared structure"
}

func mergeEffects(dst, src *effect) {
	for it := range src.Reads {
		dst.Reads.Add(it) // want "Add mutates a model container that aliases shared structure"
	}
}

var master = model.State{}

func patch(it model.Item, v model.Value) {
	master[it] = v // want "element write mutates a model container that aliases shared structure"
}

func drop(set model.ItemSet, it model.Item) {
	delete(set, it) // want "delete mutates a model container that aliases shared structure"
}

func taintDirect(e *effect, it model.Item) {
	e.readSet().Add(it) // want "Add mutates a model container that aliases shared structure"
}

func taintLocal(e *effect, items []model.Item) model.ItemSet {
	acc := e.readSet()
	for _, it := range items {
		acc.Add(it) // want "Add mutates a model container that aliases shared structure"
	}
	return acc
}

func rebound(e *effect, it model.Item) model.ItemSet {
	s := e.readSet()
	s = s.Clone()
	s.Add(it)
	return s
}

func snapshotReads(e *effect, extra model.Item) model.ItemSet {
	s := e.Reads.Clone()
	s.Add(extra)
	return s
}

func union(a, b model.ItemSet) model.ItemSet {
	out := model.ItemSet{}
	for it := range a {
		out.Add(it)
	}
	for it := range b {
		out.Add(it)
	}
	return out
}

type ledger struct {
	seen model.ItemSet
}

// note mutates the receiver's own set: the method is the owner.
func (l *ledger) note(it model.Item) {
	l.seen.Add(it)
}

// addItems fills the caller-owned accumulator.
//
//tiermerge:sink
func addItems(acc model.ItemSet, items []model.Item) {
	for _, it := range items {
		acc.Add(it)
	}
}

func suppressed(set model.ItemSet, it model.Item) {
	//tiermerge:ignore itemsetalias the debug path owns this set by contract
	set.Add(it)
}
