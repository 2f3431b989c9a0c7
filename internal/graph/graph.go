// Package graph implements the precedence graph G(Hm, Hb) of Section 2.1
// (after Davidson '84) together with cycle detection and the back-out
// strategies that compute the set B of undesirable tentative transactions
// whose removal breaks every cycle.
//
// Vertices are the transactions of the tentative history Hm and the base
// history Hb. An edge Ti -> Tj means Ti must precede Tj in any merged
// serial history:
//
//   - two tentative transactions with conflicting operations are ordered as
//     in Hm;
//   - two base transactions with conflicting operations are ordered as in
//     Hb;
//   - across histories, a reader precedes the writer that updated what it
//     read: both histories start from the same database state, so a
//     transaction that read an item observed the value from before the other
//     history's update and must be serialized before it.
//
// The graph is acyclic iff Hm and Hb are serializable into a single merged
// history (Theorem 1).
//
// There are two ways to build it. Build is the literal construction over the
// whole of both histories — the reference. BuildIndexed serves the
// replication substrate: the base history is indexed once, as it is
// written (BaseIndex), and a merge builds the graph over Hm and only the
// base entries that can lie on a cycle through Hm, which yields the same
// cycles and therefore the same back-out sets (index.go).
package graph

import (
	"fmt"
	"sort"
	"strings"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
)

// Access is the conflict-relevant footprint of one transaction: its identity
// and, per item it actually read or wrote, how it touched the item.
// Accesses normally come from executed effects (AccessOf) but can be
// declared directly (Declare), e.g. to reproduce the paper's Example 1
// verbatim.
type Access struct {
	ID   string
	Kind tx.Kind
	// Items are the touched items in item order, as an executed effect
	// records them (tx.Effect.Items; AccessOf shares the effect's slice).
	Items []tx.ItemEffect
	// Deltas says whether the records' delta classification counts. An
	// item the access touched only as a pure commutative increment
	// (tx.ItemEffect.DeltaPure) then commutes with any other delta-pure
	// access of it: the conflict pair contributes no precedence edge (the
	// edge is elided; Graph.Elided counts them). False (the value-write
	// baseline) disables elision for the access.
	Deltas bool
}

// AccessOf is the footprint of one executed transaction; deltas selects
// whether its delta classification counts.
func AccessOf(t *tx.Transaction, eff *tx.Effect, deltas bool) Access {
	return Access{ID: t.ID, Kind: t.Kind, Items: eff.Items, Deltas: deltas}
}

// Declare builds the access of a transaction known only by its read and
// write sets. delta lists the written items it touched only as pure
// increments; a nil delta disables elision for the access.
func Declare(id string, kind tx.Kind, reads, writes, delta model.ItemSet) Access {
	a := Access{ID: id, Kind: kind, Deltas: delta != nil}
	for _, it := range reads.Union(writes).Items() {
		d := delta.Has(it)
		a.Items = append(a.Items, tx.ItemEffect{Item: it, Read: reads.Has(it), General: !d, Written: writes.Has(it), Increment: d})
	}
	return a
}

func accessesOf(a *history.Augmented, deltas bool) []Access {
	out := make([]Access, a.H.Len())
	for i, eff := range a.Effects {
		out[i] = AccessOf(a.H.Txn(i), eff, deltas)
	}
	return out
}

// AccessesOf extracts the access footprints from an executed history,
// without delta classification: every conflict gets its precedence edge,
// the paper's literal Section 2.1 construction. DeltaAccessesOf is the
// delta-aware variant the merging protocol uses by default.
func AccessesOf(a *history.Augmented) []Access { return accessesOf(a, false) }

// DeltaAccessesOf extracts access footprints with delta classification:
// each access's Delta set carries the items it touched only as pure
// commutative increments, so the builder elides the edges of delta-delta
// conflict pairs. The merged outcome is unchanged for acyclic graphs and
// strictly better where delta-delta 2-cycles would otherwise force
// back-outs; the value-write baseline (merge.Options.DisableDeltas)
// falls back to AccessesOf.
func DeltaAccessesOf(a *history.Augmented) []Access { return accessesOf(a, true) }

// Graph is the precedence graph. Vertices 0..MobileLen-1 are the tentative
// transactions of Hm in order; vertices MobileLen..MobileLen+BaseLen-1 are
// the base transactions of Hb in order.
type Graph struct {
	MobileLen int
	BaseLen   int
	// Elided counts the conflict pairs that needed no precedence edge
	// because both sides touched the shared item only as pure commutative
	// deltas (Access.Deltas). It is the graph-size saving delta-merge
	// semantics buys over the value-write reading of the same histories.
	Elided int
	// mobileElided is the share of Elided with both endpoints in Hm.
	mobileElided int

	ids  []string
	kind []tx.Kind
	succ [][]int
	pred [][]int
	// cost is the back-out cost weight of each tentative vertex:
	// 1 + |reads-from closure within Hm|. Strategies minimizing total
	// back-out cost use it; it is 1 for base vertices (never backed out).
	cost []int
}

// BuildFromHistories executes nothing; it builds the graph from two already
// executed (augmented) histories.
func BuildFromHistories(am, ab *history.Augmented) *Graph {
	return Build(AccessesOf(am), AccessesOf(ab))
}

// Len returns the total number of vertices.
func (g *Graph) Len() int { return len(g.ids) }

// ID returns the transaction ID of vertex v.
func (g *Graph) ID(v int) string { return g.ids[v] }

// Kind returns whether vertex v is tentative or base.
func (g *Graph) Kind(v int) tx.Kind { return g.kind[v] }

// Cost returns the back-out cost weight of vertex v.
func (g *Graph) Cost(v int) int { return g.cost[v] }

// Succ returns the successors of v (v must precede them). The slice
// aliases the graph's internal adjacency storage.
func (g *Graph) Succ(v int) []int { return g.succ[v] }

// Pred returns the predecessors of v. The slice aliases the graph's
// internal adjacency storage.
func (g *Graph) Pred(v int) []int { return g.pred[v] }

// LocalEdges returns the edge count of G(Hm) read the value-write way —
// without delta elision: the conflicting pairs of tentative transactions,
// the Hm→Hm edges plus the Hm–Hm pairs whose edge was elided. It is what the
// mobile node would ship as its local graph, read off this graph instead of
// a second build.
func (g *Graph) LocalEdges() int {
	n := g.mobileElided
	for u := range g.MobileLen {
		n += sort.SearchInts(g.succ[u], g.MobileLen) // successors are sorted, Hm first
	}
	return n
}

// VertexByID returns the vertex index of the transaction with the given ID,
// or -1.
func (g *Graph) VertexByID(id string) int {
	for i, x := range g.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// Edges returns every edge as ID pairs, deterministically ordered. Intended
// for reports and tests (e.g. checking Figure 1).
func (g *Graph) Edges() [][2]string {
	var out [][2]string
	for u := range g.succ {
		for _, v := range g.succ[u] {
			out = append(out, [2]string{g.ids[u], g.ids[v]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// HasEdge reports whether the edge from ID u to ID v exists.
func (g *Graph) HasEdge(u, v string) bool {
	ui, vi := g.VertexByID(u), g.VertexByID(v)
	if ui < 0 || vi < 0 {
		return false
	}
	for _, s := range g.succ[ui] {
		if s == vi {
			return true
		}
	}
	return false
}

// Acyclic reports whether the graph, minus the removed vertices, has no
// cycle. A nil removed set tests the whole graph.
func (g *Graph) Acyclic(removed map[int]bool) bool {
	var c cycles
	return !c.pass(g, g.maskOf(removed))
}

// maskOf is removed as a vertex mask; nil when nothing is removed.
func (g *Graph) maskOf(removed map[int]bool) []bool {
	if len(removed) == 0 {
		return nil
	}
	mask := make([]bool, g.Len())
	for v, r := range removed {
		if r && v >= 0 && v < len(mask) {
			mask[v] = true
		}
	}
	return mask
}

// SCCs computes the strongly connected components of the graph minus the
// removed vertices, using Tarjan's algorithm (iterative): in the order they
// complete, each sorted ascending.
func (g *Graph) SCCs(removed map[int]bool) [][]int {
	var c cycles
	c.pass(g, g.maskOf(removed))
	sccs := make([][]int, len(c.size))
	at := make([]int, len(c.size)+1)
	for id, size := range c.size {
		at[id+1] = at[id] + int(size)
	}
	members := make([]int, at[len(c.size)])
	for v, id := range c.comp {
		if id >= 0 {
			members[at[id]] = v
			at[id]++
		}
	}
	for id, size := range c.size {
		end := at[id]
		sccs[id] = members[end-int(size) : end : end]
	}
	return sccs
}

// cycles is one cycle pass over a graph: Tarjan's algorithm, iterative,
// labelling every vertex with its strongly connected component — numbered
// in the order the components complete — and every component with its
// size, honouring a removed-vertex mask. The back-out strategies run it
// round after round over the arrays of one Scratch.
type cycles struct {
	comp  []int32 // per vertex: its component; -1 if removed
	size  []int32 // per component: its vertex count
	index []int32 // per vertex: visit order; -1 if unvisited
	low   []int32
	stack []int32
	work  []frame
	// cyclic says whether some component has more than one vertex.
	cyclic bool
}

// frame is one depth-first step: a vertex and its next successor.
type frame struct{ v, child int32 }

// onCycle reports whether v lies on a cycle of the last pass: its
// component has more than one vertex.
func (c *cycles) onCycle(v int) bool { return c.comp[v] >= 0 && c.size[c.comp[v]] > 1 }

// pass labels the components of g minus the vertices marked in removed
// (nil: none) and reports whether a cycle remains.
func (c *cycles) pass(g *Graph, removed []bool) bool {
	n := g.Len()
	c.comp = filled(c.comp, n, -1)
	c.index = filled(c.index, n, -1)
	c.low = sized(c.low, n)
	c.size = emptied(c.size, n)
	c.stack = emptied(c.stack, n)
	c.work = emptied(c.work, n)
	c.cyclic = false
	out := func(v int) bool { return removed != nil && removed[v] }
	counter := int32(0)
	for root := range n {
		if out(root) || c.index[root] >= 0 {
			continue
		}
		c.work = append(c.work, frame{v: int32(root)})
		for len(c.work) > 0 {
			f := &c.work[len(c.work)-1]
			v := f.v
			if f.child == 0 {
				c.index[v], c.low[v] = counter, counter
				counter++
				c.stack = append(c.stack, v)
			}
			succ := g.succ[v]
			advanced := false
			for int(f.child) < len(succ) {
				w := succ[f.child]
				f.child++
				if out(w) {
					continue
				}
				if c.index[w] < 0 {
					c.work = append(c.work, frame{v: int32(w)})
					advanced = true
					break
				}
				// Visited and not yet in a component: on the stack.
				if c.comp[w] < 0 && c.index[w] < c.low[v] {
					c.low[v] = c.index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished
			if c.low[v] == c.index[v] {
				id, size := int32(len(c.size)), int32(0)
				for {
					w := c.stack[len(c.stack)-1]
					c.stack = c.stack[:len(c.stack)-1]
					c.comp[w] = id
					size++
					if w == v {
						break
					}
				}
				c.size = append(c.size, size)
				c.cyclic = c.cyclic || size > 1
			}
			c.work = c.work[:len(c.work)-1]
			if len(c.work) > 0 {
				parent := c.work[len(c.work)-1].v
				c.low[parent] = min(c.low[parent], c.low[v])
			}
		}
	}
	return c.cyclic
}

// cyclicVertices appends to buf every vertex on a cycle of the last pass,
// ascending.
func (c *cycles) cyclicVertices(buf []int) []int {
	for v := range c.comp {
		if c.onCycle(v) {
			buf = append(buf, v)
		}
	}
	return buf
}

// FindCycle returns the IDs along one cycle of the graph minus removed, or
// nil if acyclic. Used for diagnostics.
func (g *Graph) FindCycle(removed map[int]bool) []string {
	for _, scc := range g.SCCs(removed) {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[int]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		// Walk successors inside the SCC until a vertex repeats.
		start := scc[0]
		seenAt := map[int]int{start: 0}
		path := []int{start}
		cur := start
		for {
			next := -1
			for _, w := range g.succ[cur] {
				if inSCC[w] && !removed[w] {
					next = w
					break
				}
			}
			if next == -1 {
				return nil // should not happen inside a nontrivial SCC
			}
			if at, ok := seenAt[next]; ok {
				ids := make([]string, 0, len(path)-at)
				for _, v := range path[at:] {
					ids = append(ids, g.ids[v])
				}
				return ids
			}
			seenAt[next] = len(path)
			path = append(path, next)
			cur = next
		}
	}
	return nil
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("precedence graph: %d tentative + %d base vertices, %d edges",
		g.MobileLen, g.BaseLen, func() int {
			n := 0
			for _, s := range g.succ {
				n += len(s)
			}
			return n
		}())
}

// Dot renders the graph in Graphviz DOT form: tentative vertices as
// ellipses, base vertices as boxes, with removed vertices grayed out.
func (g *Graph) Dot(removed map[int]bool) string {
	var b strings.Builder
	b.WriteString("digraph precedence {\n  rankdir=LR;\n")
	for v := 0; v < g.Len(); v++ {
		shape := "ellipse"
		if g.Kind(v) == tx.Base {
			shape = "box"
		}
		style := ""
		if removed[v] {
			style = `, style=dashed, color=gray`
		}
		fmt.Fprintf(&b, "  %q [shape=%s%s];\n", g.ID(v), shape, style)
	}
	for u := 0; u < g.Len(); u++ {
		for _, v := range g.Succ(u) {
			attr := ""
			if removed[u] || removed[v] {
				attr = " [color=gray, style=dashed]"
			}
			fmt.Fprintf(&b, "  %q -> %q%s;\n", g.ID(u), g.ID(v), attr)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
