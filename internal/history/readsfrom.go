package history

import (
	"tiermerge/internal/model"
)

// ReadsFromEdge records that the transaction at position Reader read item
// Item from the transaction at position Writer (the paper's reads-from
// relation: the writer updated the item, the reader read it afterwards, and
// no transaction updated the item in between).
type ReadsFromEdge struct {
	Writer, Reader int
	Item           model.Item
}

// ReadsFrom computes every reads-from edge of the augmented history. Reads
// satisfied by the initial state (no prior writer) produce no edge.
func ReadsFrom(a *Augmented) []ReadsFromEdge {
	var edges []ReadsFromEdge
	lastWriter := make(map[model.Item]int)
	for i, eff := range a.Effects {
		for _, r := range eff.Items {
			if w, ok := lastWriter[r.Item]; ok && r.Observed {
				edges = append(edges, ReadsFromEdge{Writer: w, Reader: i, Item: r.Item})
			}
			if r.Written {
				lastWriter[r.Item] = i
			}
		}
	}
	return edges
}

// AffectedSet computes AG, the set of affected transactions (Section 2.1):
// the transactions reachable from B through the transitive closure of the
// reads-from relation, excluding B itself. bad and the result are sets of
// positions in the history.
func AffectedSet(a *Augmented, bad map[int]bool) map[int]bool {
	edges := ReadsFrom(a)
	// adjacency: writer -> readers
	readers := make(map[int][]int)
	for _, e := range edges {
		readers[e.Writer] = append(readers[e.Writer], e.Reader)
	}
	affected := make(map[int]bool)
	var stack []int
	for b := range bad {
		stack = append(stack, b)
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range readers[v] {
			if bad[r] || affected[r] {
				continue
			}
			affected[r] = true
			stack = append(stack, r)
		}
	}
	return affected
}
