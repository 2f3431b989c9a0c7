package graph

import (
	"sort"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Build constructs the precedence graph from the two access sequences — the
// literal Section 2.1 construction over the whole of Hb, and the reference
// the indexed path (BuildIndexed) is tested against. Construction is
// item-indexed: instead of testing every transaction pair (O(n² · items)),
// it groups accesses per item and emits conflict pairs only where
// transactions actually meet — the way a log-parsing implementation would
// work (Section 7.1 builds the graph "by parsing the log ... only once").
func Build(mobile, base []Access) *Graph {
	g, _ := build(mobile, base)
	return g
}

// itemRef is one access of one item: which vertex, and how it touched the
// item. delta marks the access as delta-pure on the item: the only read is
// the update's own pre-read and the write is a state-independent increment,
// so it commutes with any other delta-pure access of the item and the
// conflict pair needs no precedence edge.
type itemRef struct {
	vertex               int
	reads, writes, delta bool
}

// eachItem calls f once per item a touches, with how it touched it; a blind
// write (written, never read) reports reads == false.
func eachItem(a Access, f func(it model.Item, reads, writes, delta bool)) {
	for it := range a.ReadSet {
		f(it, true, a.WriteSet.Has(it), a.Delta.Has(it))
	}
	for it := range a.WriteSet {
		if !a.ReadSet.Has(it) {
			f(it, false, true, a.Delta.Has(it))
		}
	}
}

// build is Build, also reporting how many of the elided pairs have both
// endpoints in Hm (the rule-1 share of Graph.Elided, which BuildIndexed
// keeps while recounting the cross pairs over the whole view).
func build(mobile, base []Access) (g *Graph, mobileElided int) {
	nm, n := len(mobile), len(mobile)+len(base)
	g = &Graph{
		MobileLen: nm,
		BaseLen:   len(base),
		ids:       make([]string, n),
		kind:      make([]tx.Kind, n),
		succ:      make([][]int, n),
		pred:      make([][]int, n),
		cost:      make([]int, n),
	}
	type itemIndex struct{ mobile, base []itemRef }
	perItem := make(map[model.Item]*itemIndex)
	collect := func(a Access, v int) {
		g.ids[v] = a.ID
		eachItem(a, func(it model.Item, reads, writes, delta bool) {
			e := perItem[it]
			if e == nil {
				e = &itemIndex{}
				perItem[it] = e
			}
			ref := itemRef{vertex: v, reads: reads, writes: writes, delta: delta}
			if v < nm {
				e.mobile = append(e.mobile, ref)
			} else {
				e.base = append(e.base, ref)
			}
		})
	}
	for i, a := range mobile {
		g.kind[i] = tx.Tentative
		collect(a, i)
	}
	for i, a := range base {
		g.kind[nm+i] = tx.Base
		collect(a, nm+i)
	}

	// A conflict pair in which both sides touch the item only as pure deltas
	// commutes: its edge is elided, and counted in Graph.Elided unless some
	// other item gives the same ordered pair a real edge (nothing was saved
	// for it then).
	edges := make(map[[2]int]struct{})
	elided := make(map[[2]int]struct{})
	pair := func(u, v int, bothDelta bool) {
		key := [2]int{u, v}
		if bothDelta {
			elided[key] = struct{}{}
			return
		}
		if _, dup := edges[key]; dup {
			return
		}
		edges[key] = struct{}{}
		g.succ[u] = append(g.succ[u], v)
		g.pred[v] = append(g.pred[v], u)
	}
	// sameTier orders the conflicting pairs of one tier as in its history
	// (rules 1 and 2).
	sameTier := func(refs []itemRef) {
		for x := 0; x < len(refs); x++ {
			for y := x + 1; y < len(refs); y++ {
				if rx, ry := refs[x], refs[y]; rx.writes || ry.writes {
					pair(rx.vertex, ry.vertex, rx.delta && ry.delta)
				}
			}
		}
	}
	for _, e := range perItem {
		sameTier(e.mobile)
		sameTier(e.base)
		// Rule 3: across tiers a reader precedes the writer. A delta-pure
		// pair produces no edge in either direction: each side's only read
		// of the item is its own pre-read, whose observed value its written
		// increment does not depend on.
		for _, m := range e.mobile {
			for _, b := range e.base {
				if m.reads && b.writes {
					pair(m.vertex, b.vertex, m.delta && b.delta)
				}
				if b.reads && m.writes {
					pair(b.vertex, m.vertex, m.delta && b.delta)
				}
			}
		}
	}
	for key := range elided {
		if _, real := edges[key]; real {
			continue
		}
		g.Elided++
		if key[0] < nm && key[1] < nm {
			mobileElided++
		}
	}
	for i := range g.succ {
		sort.Ints(g.succ[i])
		sort.Ints(g.pred[i])
	}
	g.computeCosts(mobile)
	return g, mobileElided
}
