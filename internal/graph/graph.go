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
	return len(g.cyclicVertices(removed)) == 0
}

// cyclicVertices returns every vertex that lies on some cycle (i.e. belongs
// to a strongly connected component of size > 1), honoring the removed mask.
func (g *Graph) cyclicVertices(removed map[int]bool) []int {
	sccs := g.SCCs(removed)
	var out []int
	for _, scc := range sccs {
		if len(scc) > 1 {
			out = append(out, scc...)
		}
	}
	sort.Ints(out)
	return out
}

// SCCs computes the strongly connected components of the graph minus the
// removed vertices, using Tarjan's algorithm (iterative).
func (g *Graph) SCCs(removed map[int]bool) [][]int {
	n := g.Len()
	const unvisited = -1
	marks := make([]int, 2*n)
	index, low := marks[:n], marks[n:]
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	type frame struct {
		v, childIdx int
	}
	var (
		stack   []int
		sccs    [][]int
		counter int
		work    []frame // one depth-first stack for every root
	)
	for root := 0; root < n; root++ {
		if removed[root] || index[root] != unvisited {
			continue
		}
		work = append(work[:0], frame{v: root})
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.childIdx == 0 {
				index[v] = counter
				low[v] = counter
				counter++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.childIdx < len(g.succ[v]) {
				w := g.succ[v][f.childIdx]
				f.childIdx++
				if removed[w] {
					continue
				}
				if index[w] == unvisited {
					work = append(work, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sort.Ints(scc)
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return sccs
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

// TwoCycles returns every 2-cycle as vertex pairs (u < v).
func (g *Graph) TwoCycles() [][2]int {
	var out [][2]int
	for u := range g.succ {
		for _, v := range g.succ[u] {
			if v <= u {
				continue
			}
			for _, w := range g.succ[v] {
				if w == u {
					out = append(out, [2]int{u, v})
					break
				}
			}
		}
	}
	return out
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
