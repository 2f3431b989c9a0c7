package graph

import (
	"errors"
	"fmt"
	"sort"

	"tiermerge/internal/tx"
)

// ErrUnbreakable is returned when cycles remain that contain no tentative
// vertex. This cannot happen for graphs built from a serial Hm and a serial
// Hb (base-only edges always point forward in Hb), but strategies check
// defensively.
var ErrUnbreakable = errors.New("graph: cycle contains only base transactions")

// Strategy computes the back-out set B: tentative vertices whose removal
// makes the precedence graph acyclic. Minimizing |B| (or total back-out
// cost) is NP-complete, so most strategies are heuristics; Davidson's
// simulations showed good heuristics get close to optimal, and the paper
// adopts them wholesale (Section 2.1 step 2).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// ComputeB returns the vertex indices to back out, sorted ascending.
	ComputeB(g *Graph) ([]int, error)
}

// GreedyCost backs out, while cycles remain, the cyclic tentative vertex
// with the smallest Davidson back-out cost (1 + reads-from closure size);
// ties go to the earliest history position. It reproduces the paper's
// Example 1 choice (Tm3 is the cheapest vertex on the cycle).
type GreedyCost struct{}

// Name implements Strategy.
func (GreedyCost) Name() string { return "greedy-cost" }

// ComputeB implements Strategy.
func (GreedyCost) ComputeB(g *Graph) ([]int, error) {
	removed := make(map[int]bool)
	var b []int
	for {
		cyclic := g.cyclicVertices(removed)
		if len(cyclic) == 0 {
			break
		}
		best := -1
		for _, v := range cyclic {
			if g.Kind(v) != tx.Tentative {
				continue
			}
			if best == -1 || g.Cost(v) < g.Cost(best) {
				best = v
			}
		}
		if best == -1 {
			return nil, ErrUnbreakable
		}
		removed[best] = true
		b = append(b, best)
	}
	sort.Ints(b)
	return b, nil
}

// GreedyDegree backs out, while cycles remain, the cyclic tentative vertex
// with the largest in-degree x out-degree product restricted to its
// component — the classic feedback-vertex heuristic. It tends to produce
// small B at the price of ignoring back-out cost.
type GreedyDegree struct{}

// Name implements Strategy.
func (GreedyDegree) Name() string { return "greedy-degree" }

// ComputeB implements Strategy.
func (GreedyDegree) ComputeB(g *Graph) ([]int, error) {
	removed := make(map[int]bool)
	var b []int
	for {
		sccs := g.SCCs(removed)
		progressed := false
		for _, scc := range sccs {
			if len(scc) < 2 {
				continue
			}
			inSCC := make(map[int]bool, len(scc))
			for _, v := range scc {
				inSCC[v] = true
			}
			best, bestScore := -1, -1
			for _, v := range scc {
				if g.Kind(v) != tx.Tentative {
					continue
				}
				in, out := 0, 0
				for _, p := range g.Pred(v) {
					if inSCC[p] && !removed[p] {
						in++
					}
				}
				for _, s := range g.Succ(v) {
					if inSCC[s] && !removed[s] {
						out++
					}
				}
				if score := in * out; score > bestScore {
					best, bestScore = v, score
				}
			}
			if best == -1 {
				return nil, ErrUnbreakable
			}
			removed[best] = true
			b = append(b, best)
			progressed = true
		}
		if !progressed {
			break
		}
	}
	sort.Ints(b)
	return b, nil
}

// TwoCycle is Davidson's "breaking two-cycles optimally": a tentative/base
// two-cycle forces its tentative endpoint out (the mandatory moves); the
// tentative/tentative two-cycles form an undirected conflict graph whose
// minimum-weight vertex cover (weights = back-out costs) is backed out —
// exactly for small covers, greedily beyond MaxExact vertices. Remaining
// longer cycles, rare in practice, are then broken by the cheapest-cost
// greedy.
type TwoCycle struct {
	// MaxExact bounds the exact vertex-cover search (default 18 incident
	// vertices).
	MaxExact int
}

// Name implements Strategy.
func (TwoCycle) Name() string { return "two-cycle" }

// ComputeB implements Strategy.
func (s TwoCycle) ComputeB(g *Graph) ([]int, error) {
	maxExact := s.MaxExact
	if maxExact == 0 {
		maxExact = 18
	}
	removed := make(map[int]bool)
	var b []int
	// Mandatory: tentative partners of tentative/base two-cycles.
	var ttEdges [][2]int
	for _, pair := range g.TwoCycles() {
		u, v := pair[0], pair[1]
		uT := g.Kind(u) == tx.Tentative
		vT := g.Kind(v) == tx.Tentative
		switch {
		case uT && !vT:
			if !removed[u] {
				removed[u] = true
				b = append(b, u)
			}
		case vT && !uT:
			if !removed[v] {
				removed[v] = true
				b = append(b, v)
			}
		case uT && vT:
			ttEdges = append(ttEdges, pair)
		default:
			return nil, ErrUnbreakable
		}
	}
	// Optimal cover of the tentative/tentative two-cycles, ignoring edges
	// already covered by the mandatory removals.
	var openEdges [][2]int
	weights := make(map[int]int)
	for _, e := range ttEdges {
		if removed[e[0]] || removed[e[1]] {
			continue
		}
		openEdges = append(openEdges, e)
		weights[e[0]] = g.Cost(e[0])
		weights[e[1]] = g.Cost(e[1])
	}
	for _, v := range minVertexCover(openEdges, weights, maxExact) {
		if !removed[v] {
			removed[v] = true
			b = append(b, v)
		}
	}
	// Remaining cycles: cheapest-cost greedy.
	for {
		cyclic := g.cyclicVertices(removed)
		if len(cyclic) == 0 {
			break
		}
		best := -1
		for _, v := range cyclic {
			if g.Kind(v) != tx.Tentative {
				continue
			}
			if best == -1 || g.Cost(v) < g.Cost(best) {
				best = v
			}
		}
		if best == -1 {
			return nil, ErrUnbreakable
		}
		removed[best] = true
		b = append(b, best)
	}
	sort.Ints(b)
	return b, nil
}

// Exhaustive finds a minimum back-out set exactly, by trying candidate sets
// in order of increasing total back-out cost (then cardinality). It is
// exponential and refuses graphs with more than MaxCandidates cyclic
// tentative vertices.
type Exhaustive struct {
	// MaxCandidates bounds the search (default 20).
	MaxCandidates int
}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// ComputeB implements Strategy.
func (e Exhaustive) ComputeB(g *Graph) ([]int, error) {
	maxC := e.MaxCandidates
	if maxC == 0 {
		maxC = 20
	}
	var candidates []int
	for _, v := range g.cyclicVertices(nil) {
		if g.Kind(v) == tx.Tentative {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		if g.Acyclic(nil) {
			return nil, nil
		}
		return nil, ErrUnbreakable
	}
	if len(candidates) > maxC {
		return nil, fmt.Errorf("graph: exhaustive back-out over %d candidates exceeds limit %d",
			len(candidates), maxC)
	}
	type cand struct {
		set  []int
		cost int
	}
	var best *cand
	n := len(candidates)
	for mask := 0; mask < 1<<n; mask++ {
		var set []int
		cost := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				set = append(set, candidates[i])
				cost += g.Cost(candidates[i])
			}
		}
		if best != nil && (cost > best.cost || (cost == best.cost && len(set) >= len(best.set))) {
			continue
		}
		removed := make(map[int]bool, len(set))
		for _, v := range set {
			removed[v] = true
		}
		if g.Acyclic(removed) {
			best = &cand{set: set, cost: cost}
		}
	}
	if best == nil {
		return nil, ErrUnbreakable
	}
	sort.Ints(best.set)
	return best.set, nil
}

// AllCyclic backs out every tentative vertex lying on any cycle — the
// simplest (and most wasteful) strategy; used as the upper baseline in the
// strategy-comparison experiment (E9).
type AllCyclic struct{}

// Name implements Strategy.
func (AllCyclic) Name() string { return "all-cyclic" }

// ComputeB implements Strategy.
func (AllCyclic) ComputeB(g *Graph) ([]int, error) {
	var b []int
	for _, v := range g.cyclicVertices(nil) {
		if g.Kind(v) == tx.Tentative {
			b = append(b, v)
		}
	}
	removed := make(map[int]bool, len(b))
	for _, v := range b {
		removed[v] = true
	}
	if !g.Acyclic(removed) {
		return nil, ErrUnbreakable
	}
	sort.Ints(b)
	return b, nil
}
