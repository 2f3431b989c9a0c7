package graph

import (
	"slices"

	"tiermerge/internal/model"
)

// Build constructs the precedence graph from the two access sequences — the
// literal Section 2.1 construction over the whole of Hb, and the reference
// the indexed path (BuildIndexed) is tested against. Construction is
// item-indexed: instead of testing every transaction pair (O(n² · items)),
// it groups accesses per item and emits conflict pairs only where
// transactions actually meet — the way a log-parsing implementation would
// work (Section 7.1 builds the graph "by parsing the log ... only once").
func Build(mobile, base []Access) *Graph {
	return build(mobile, len(base), func(i int) *Access { return &base[i] }, nil)
}

// itemRef is one access of one item: which vertex, and how it touched the
// item. delta marks the access as delta-pure on the item: the only read is
// the update's own pre-read and the write is a state-independent increment,
// so it commutes with any other delta-pure access of the item and the
// conflict pair needs no precedence edge.
type itemRef struct {
	vertex               int32
	reads, writes, delta bool
}

// touch is one (vertex, item) access of a build: its item's number k, and
// its position in the per-item layout.
type touch struct{ k, pos int32 }

// eachItem calls f once per item a touches, in item order, with how it
// touched it; a blind write (written, never read) reports reads == false.
func eachItem(a Access, f func(it model.Item, reads, writes, delta bool)) {
	for _, r := range a.Items {
		f(r.Item, r.Read, r.Written, a.Deltas && r.DeltaPure())
	}
}

// build is Build over the tentative accesses and nb base accesses read
// through baseAt (all of Hb, or BuildIndexed's relevant entries), with its
// transient arrays in s (nil: fresh ones). It also records how many of the
// elided pairs have both endpoints in Hm (Graph.mobileElided: the rule-1
// share of Graph.Elided, which BuildIndexed keeps while recounting the
// cross pairs over the whole view).
//
// The accesses are laid out per item in one flat array (each item's refs
// contiguous and in vertex order, Hm's before Hb's), and the edges are
// emitted source by source into one flat successor buffer. A target already
// emitted for the current source carries the source's stamp, the way
// BuildIndexed marks partners in bitsets, so no set of vertex pairs is kept.
// The graph's own arrays — identities, costs, the adjacency offsets and one
// array holding every successor and predecessor list — are allocated at
// exact size once the edges are known; everything else lives in s.
func build(mobile []Access, nb int, baseAt func(int) *Access, s *Scratch) *Graph {
	if s == nil {
		s = new(Scratch)
	}
	nm := len(mobile)
	n := nm + nb
	access := func(v int) *Access {
		if v < nm {
			return &mobile[v]
		}
		return baseAt(v - nm)
	}
	g := &Graph{
		MobileLen: nm,
		BaseLen:   nb,
		ids:       make([]string, n),
		cost:      make([]int32, n),
	}
	nt := 0
	for v := range n {
		nt += len(access(v).Items)
	}
	touches := emptied(s.touches, nt)
	// Both have room for the worst case, every touch a distinct item, so
	// neither grows while items are numbered once the owner has seen a
	// merge this size.
	number := cleared(s.number, &s.numberPeak, nt)
	count := emptied(s.count, nt) // accesses per item
	for v := range n {
		a := access(v)
		g.ids[v] = a.ID
		for _, r := range a.Items {
			k, ok := number[r.Item]
			if !ok {
				k = int32(len(count))
				number[r.Item] = k
				count = append(count, 0)
			}
			count[k]++
			touches = append(touches, touch{k: k})
		}
	}
	s.number, s.numberPeak = number, max(s.numberPeak, len(number))
	// Item k's refs are refs[start[k]:start[k+1]], Hm's before split[k].
	ni := len(count)
	bounds := sized(s.bounds, 2*ni+1)
	start, split := bounds[:ni+1], bounds[ni+1:]
	for k, c := range count {
		start[k+1] = start[k] + c
		count[k] = start[k] // now the fill cursor
	}
	copy(split, start)
	refs := sized(s.refs, nt)
	t := 0
	for v := range n {
		a := access(v)
		for _, r := range a.Items {
			k := touches[t].k
			pos := count[k]
			count[k]++
			refs[pos] = itemRef{vertex: int32(v), reads: r.Read, writes: r.Written, delta: a.Deltas && r.DeltaPure()}
			touches[t].pos = pos
			if v < nm {
				split[k] = pos + 1
			}
			t++
		}
	}

	// Emit each source's edges. Rule 1 or 2 orders a conflicting pair of
	// one tier as in its history; rule 3 puts a reader before the other
	// tier's writer. A pair in which both sides touch the item only as pure
	// deltas commutes: its edge is elided, and counted in Graph.Elided
	// unless some other item gives the same ordered pair a real edge
	// (nothing was saved for it then).
	stamp := sized(s.stamp, 2*n) // stamp[v]: real edge from the source, stamp[n+v]: elided
	off := sized(s.off, n+1)
	// The successor buffer grows to the largest edge count its owner has
	// seen.
	flat := emptied(s.flat, nt)
	elided := emptied(s.elided, n)
	t = 0
	for u := range n {
		mark := int32(u + 1)
		pair := func(r, q itemRef) {
			v := q.vertex
			if r.delta && q.delta {
				if stamp[n+int(v)] != mark {
					stamp[n+int(v)] = mark
					elided = append(elided, v)
				}
			} else if stamp[v] != mark {
				stamp[v] = mark
				flat = append(flat, v)
			}
		}
		for range access(u).Items {
			k, pos := touches[t].k, touches[t].pos
			t++
			r := refs[pos]
			tierEnd, cross := split[k], refs[split[k]:start[k+1]]
			if u >= nm {
				tierEnd, cross = start[k+1], refs[start[k]:split[k]]
			}
			for _, q := range refs[pos+1 : tierEnd] {
				if r.writes || q.writes {
					pair(r, q)
				}
			}
			if r.reads {
				for _, q := range cross {
					if q.writes {
						pair(r, q)
					}
				}
			}
		}
		slices.Sort(flat[off[u]:])
		off[u+1] = int32(len(flat))
		for _, v := range elided {
			if stamp[v] != mark {
				g.Elided++
				if u < nm && int(v) < nm {
					g.mobileElided++
				}
			}
		}
		elided = elided[:0]
	}
	s.touches, s.count, s.bounds, s.refs, s.stamp, s.off, s.flat, s.elided = touches, count, bounds, refs, stamp, off, flat, elided

	// The graph's one edge array: successor lists, then predecessor lists,
	// which come out sorted because sources are visited in order; the
	// successor offsets are off, the predecessor ones count from m.
	m := len(flat)
	g.adj, g.at = make([]int32, 2*m), make([]int32, 2*(n+1))
	copy(g.adj, flat)
	copy(g.at, off)
	predAt := g.at[n+1:]
	predAt[0] = int32(m)
	for _, v := range flat {
		predAt[v+1]++
	}
	for v := range n {
		predAt[v+1] += predAt[v]
	}
	fill := stamp[:n] // reused as the predecessor fill count
	clear(fill)
	for u := range n {
		for _, v := range flat[off[u]:off[u+1]] {
			g.adj[predAt[v]+fill[v]] = int32(u)
			fill[v]++
		}
	}
	g.computeCosts(refs, start, split, s)
	return g
}

// computeCosts assigns each tentative vertex the Davidson back-out cost
// 1 + |transitive reads-from closure within Hm|: backing out v forces every
// transaction that (transitively) read from it to be handled too. A
// tentative access reads from the last of Hm's writers of the item before
// it; the items' Hm refs are refs[start[k]:split[k]], in history order.
// The reads-from lists live in s.
func (g *Graph) computeCosts(refs []itemRef, start, split []int32, s *Scratch) {
	nm := g.MobileLen
	// readers[at[w]:at[w+1]] are the tentative vertices that directly read
	// an item last written by w (repeats are harmless).
	at := sized(s.at, nm+1)
	eachRead := func(f func(w, j int32)) {
		for k := range split {
			last := int32(-1)
			for _, r := range refs[start[k]:split[k]] {
				if r.reads && last >= 0 {
					f(last, r.vertex)
				}
				if r.writes {
					last = r.vertex
				}
			}
		}
	}
	eachRead(func(w, _ int32) { at[w+1]++ })
	for w := range nm {
		at[w+1] += at[w]
	}
	readers := sized(s.readers, int(at[nm]))
	seen := sized(s.seen, nm)
	eachRead(func(w, j int32) {
		readers[at[w]+seen[w]] = j
		seen[w]++
	})
	clear(seen)
	stack := emptied(s.stack, nm)
	for i := range nm {
		mark, size := int32(i+1), 0
		stack = append(stack[:0], int32(i))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, r := range readers[at[v]:at[v+1]] {
				if seen[r] != mark {
					seen[r] = mark
					size++
					stack = append(stack, r)
				}
			}
		}
		g.cost[i] = int32(1 + size)
	}
	for i := nm; i < len(g.cost); i++ {
		g.cost[i] = 1
	}
	s.at, s.readers, s.seen, s.stack = at, readers, seen, stack
}
