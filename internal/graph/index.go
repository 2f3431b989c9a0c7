package graph

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// The base index: Hb parsed once, as it is written, so that a reconnect
// reads only what Hm touches (DESIGN.md §7).
//
// Base transactions are never backed out and rule-2 edges follow Hb order,
// so the base–base subgraph of G(Hm, Hb) is acyclic and every cycle passes
// through a tentative vertex. A base entry can therefore lie on a cycle only
// if it is reachable from a tentative vertex and reaches one (the relevant
// set R). BuildIndexed finds R from the index — cross edges off the posting
// lists of Hm's footprint, reachability over the stored rule-2 predecessors
// — and hands Hm + R to the literal Build. The induced subgraph holds every
// cycle of the full graph with every edge among its vertices, so the
// nontrivial strongly connected components, and with them every back-out
// strategy's input, are identical.

// postRef is one access in an item's posting list: the base position and
// how the entry touched the item.
type postRef struct {
	pos                  int32
	reads, writes, delta bool
}

// commutes reports whether two base accesses of one item need no rule-2
// edge: two reads, or two delta-pure writes.
func (r postRef) commutes(o postRef) bool {
	return (r.delta && o.delta) || (!r.writes && !o.writes)
}

// posting is one item's accesses in Hb order, cut into runs of mutually
// commuting accesses (reads; delta-pure writes; a value write alone).
// refs[prev:cur] is the previous run, refs[cur:] the current one.
type posting struct {
	refs      []postRef
	prev, cur int
}

// BaseIndex is the append-only index of one base history: per entry its
// access and its rule-2 predecessors, per item a posting list. It is not
// safe for concurrent use; the owner appends and captures views under its
// own lock (the base cluster's mutex), and the views are read lock-free.
type BaseIndex struct {
	deltas bool
	acc    []Access
	// preds[i] are entry i's rule-2 predecessors in reachability-preserving
	// reduced form: per item, every member of the run before the one the
	// access joined. Adjacent runs always conflict, so these are real rule-2
	// edges, and an earlier conflicting access reaches the new one through
	// the runs in between — the transitive closure equals that of the
	// all-pairs edges.
	preds [][]int32
	post  map[model.Item]*posting
}

// NewBaseIndex returns an empty index. deltas selects whether appended
// accesses carry delta classification (merge.Options.DisableDeltas off).
func NewBaseIndex(deltas bool, capacity int) *BaseIndex {
	return &BaseIndex{
		deltas: deltas,
		acc:    make([]Access, 0, capacity),
		preds:  make([][]int32, 0, capacity),
		post:   make(map[model.Item]*posting),
	}
}

// Deltas reports whether the index classifies delta-pure accesses.
func (ix *BaseIndex) Deltas() bool { return ix.deltas }

// Len returns the number of indexed entries.
func (ix *BaseIndex) Len() int { return len(ix.acc) }

// Append indexes the next entry of Hb. a.Deltas must follow the index's delta
// mode (AccessOf with Deltas()).
func (ix *BaseIndex) Append(a Access) {
	pos := int32(len(ix.acc))
	var preds []int32
	eachItem(a, func(it model.Item, reads, writes, delta bool) {
		p := ix.post[it]
		if p == nil {
			p = &posting{}
			ix.post[it] = p
		}
		r := postRef{pos: pos, reads: reads, writes: writes, delta: delta}
		if n := len(p.refs); n > 0 && !r.commutes(p.refs[p.cur]) {
			p.prev, p.cur = p.cur, n // r opens a new run
		}
		for _, q := range p.refs[p.prev:p.cur] {
			preds = append(preds, q.pos)
		}
		p.refs = append(p.refs, r)
	})
	slices.Sort(preds)
	ix.acc = append(ix.acc, a)
	ix.preds = append(ix.preds, slices.Compact(preds))
}

// BeforeWrite returns the value it held before the first indexed entry at or
// after position from that writes it — that entry's before-image — and
// false when no such entry writes it. The postings are searched, no entry
// is replayed.
func (ix *BaseIndex) BeforeWrite(it model.Item, from int) (model.Value, bool) {
	p := ix.post[it]
	if p == nil {
		return 0, false
	}
	refs := p.refs
	for i := sort.Search(len(refs), func(i int) bool { return int(refs[i].pos) >= from }); i < len(refs); i++ {
		if refs[i].writes {
			items := ix.acc[refs[i].pos].Items
			k, _ := slices.BinarySearchFunc(items, it, func(r tx.ItemEffect, it model.Item) int { return cmp.Compare(r.Item, it) })
			return items[k].Before, true
		}
	}
	return 0, false
}

// BaseView is the lock-free view of a base index one merge prepares against:
// capped slices of the accesses and predecessors, plus the capped posting
// lists of the footprint items only. Everything in it was copied out under
// the index owner's lock; the index keeps appending behind the caps without
// ever touching what the view can see.
type BaseView struct {
	from   int
	deltas bool
	acc    []Access
	preds  [][]int32
	post   map[model.Item][]postRef
}

// View captures the entries [from, Len()) for a merge whose tentative
// history touches footprint. A nil footprint captures no posting lists: the
// view then serves Accesses only (one shard's part of a cross-shard merge,
// whose accesses its owner appends to a combined index). The posting map is
// s's (nil: a fresh one), so the view is valid until s's next View. Call
// it under the lock that guards Append.
func (ix *BaseIndex) View(from int, footprint model.ItemSet, s *Scratch) *BaseView {
	n := len(ix.acc)
	v := &BaseView{from: from, deltas: ix.deltas, acc: ix.acc[:n:n], preds: ix.preds[:n:n]}
	if len(footprint) == 0 {
		return v
	}
	if s == nil {
		v.post = make(map[model.Item][]postRef, len(footprint))
	} else {
		s.post = cleared(s.post, &s.postPeak, len(footprint))
		v.post = s.post
		defer func() { s.postPeak = max(s.postPeak, len(v.post)) }()
	}
	for it := range footprint {
		p := ix.post[it]
		if p == nil {
			continue
		}
		refs := p.refs[:len(p.refs):len(p.refs)]
		if from > 0 { // a Strategy 1 view: drop what precedes the checkout
			refs = refs[sort.Search(len(refs), func(i int) bool { return int(refs[i].pos) >= from }):]
		}
		if len(refs) > 0 {
			v.post[it] = refs
		}
	}
	return v
}

// Len returns the number of base entries viewed.
func (v *BaseView) Len() int { return len(v.acc) - v.from }

// Deltas reports the delta mode of the index the view came from.
func (v *BaseView) Deltas() bool { return v.deltas }

// Accesses returns the viewed entries' accesses in Hb order.
func (v *BaseView) Accesses() []Access { return v.acc[v.from:] }

// Touches reports whether some viewed entry read or wrote it. Only
// footprint items have postings; others report false.
func (v *BaseView) Touches(it model.Item) bool { return len(v.post[it]) > 0 }

// ViewStats sizes one BuildIndexed call.
type ViewStats struct {
	// Viewed is the number of base entries in the view, Kept the number
	// that entered the graph (the relevant set R).
	Viewed, Kept int
	// Scanned counts posting-list entries read, Steps predecessor links
	// followed by the two reachability passes.
	Scanned, Steps int
}

// bitset is a fixed-size set of base positions.
type bitset []uint64

func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// BuildIndexed builds G(Hm, Hb) over Hm and the relevant base entries only:
// those reachable from a tentative vertex and reaching one. Every cycle of
// the full graph, with all its edges, is in the result; base entries left
// out are acyclic singletons no strategy reads. Vertex order is Hm, then R
// in Hb order. Graph.Elided counts the elided delta–delta pairs with a
// tentative endpoint, over the whole view. The transient arrays live in s
// (nil: fresh ones); the graph holds none of them.
func BuildIndexed(mobile []Access, v *BaseView, s *Scratch) (*Graph, ViewStats) {
	if s == nil {
		s = new(Scratch)
	}
	st := ViewStats{Viewed: v.Len()}
	words := (len(v.acc) + 63) / 64
	s.bits = sized(s.bits, 6*words)
	scratch := s.bits
	// in: base entries with an edge into Hm; out: with an edge from Hm.
	in, out := scratch[:words], scratch[words:2*words]
	// Per tentative vertex: real and delta-elided partners, each direction.
	realIn, realOut := scratch[2*words:3*words], scratch[3*words:4*words]
	deltaIn, deltaOut := scratch[4*words:5*words], scratch[5*words:]
	elided := 0
	for _, m := range mobile {
		clear(scratch[2*words:])
		// Rule 3, exactly as Build pairs a tentative access with a base one.
		eachItem(m, func(it model.Item, reads, writes, delta bool) {
			for _, b := range v.post[it] {
				st.Scanned++
				both, pos := delta && b.delta, int(b.pos)
				if reads && b.writes {
					if both {
						deltaOut.set(pos)
					} else {
						realOut.set(pos)
					}
				}
				if b.reads && writes {
					if both {
						deltaIn.set(pos)
					} else {
						realIn.set(pos)
					}
				}
			}
		})
		for w := 0; w < words; w++ {
			elided += bits.OnesCount64(deltaIn[w]&^realIn[w]) + bits.OnesCount64(deltaOut[w]&^realOut[w])
			in[w] |= realIn[w]
			out[w] |= realOut[w]
		}
	}

	// Close backward from the in-seeds: everything that reaches Hm.
	// Predecessors lie strictly below, so one descending sweep suffices; a
	// word is re-read after each step because the step may set lower bits
	// of it.
	reach := in
	for w := words - 1; w >= 0; w-- {
		for done := uint64(0); reach[w]&^done != 0; {
			b := 63 - bits.LeadingZeros64(reach[w]&^done)
			done |= 1 << b
			for _, q := range v.preds[w<<6|b] {
				if int(q) >= v.from {
					reach.set(int(q))
					st.Steps++
				}
			}
		}
	}
	// One ascending pass inside that closure: reachable from Hm as well.
	kept := s.kept[:0] // grows to the most its owner kept
	keep := out
	for w := 0; w < words; w++ {
		for x := reach[w]; x != 0; x &= x - 1 {
			p := w<<6 | bits.TrailingZeros64(x)
			if !keep.has(p) { // not an out-seed itself: kept through a predecessor?
				for _, q := range v.preds[p] {
					st.Steps++
					if int(q) >= v.from && keep.has(int(q)) {
						keep.set(p)
						break
					}
				}
			}
			if keep.has(p) {
				kept = append(kept, int32(p))
			}
		}
	}
	s.kept = kept
	st.Kept = len(kept)
	g := build(mobile, len(kept), func(i int) *Access { return &v.acc[kept[i]] }, s)
	// Of build's elided pairs only the tentative–tentative share counts;
	// the cross pairs are counted over the whole view.
	g.Elided = g.mobileElided + elided
	return g, st
}
