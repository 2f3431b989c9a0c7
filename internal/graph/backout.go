package graph

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
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

// backOuter is implemented by this package's strategies: the back-out set
// of g computed over s, whose cycle pass already covers the whole graph
// (no vertex removed) and found a cycle. The returned set is the caller's.
type backOuter interface {
	backOut(g *Graph, s *Scratch) ([]int, error)
}

// BackOut tests g for a cycle and, when it has one, computes the back-out
// set B with strategy — for this package's strategies over one cycle pass
// that serves both the test and the strategy's first round, with the
// pass's arrays in s (nil: fresh ones). B is allocated fresh and equals
// strategy.ComputeB(g); cyclic reports whether g had a cycle.
func BackOut(g *Graph, strategy Strategy, s *Scratch) (b []int, cyclic bool, err error) {
	if s == nil {
		s = new(Scratch)
	}
	if !s.cyc.pass(g, nil) {
		return nil, false, nil
	}
	if bo, ok := strategy.(backOuter); ok {
		b, err = bo.backOut(g, s)
	} else {
		b, err = strategy.ComputeB(g)
	}
	return b, true, err
}

// GreedyCost backs out, while cycles remain, the cyclic tentative vertex
// with the smallest Davidson back-out cost (1 + reads-from closure size);
// ties go to the earliest history position. It reproduces the paper's
// Example 1 choice (Tm3 is the cheapest vertex on the cycle).
type GreedyCost struct{}

// Name implements Strategy.
func (GreedyCost) Name() string { return "greedy-cost" }

// ComputeB implements Strategy.
func (s GreedyCost) ComputeB(g *Graph) ([]int, error) {
	b, _, err := BackOut(g, s, nil)
	return b, err
}

func (GreedyCost) backOut(g *Graph, s *Scratch) ([]int, error) {
	return cheapestRounds(g, &s.cyc, s.mask(g.Len()), nil)
}

// cheapestRounds backs out, while c's last pass over g minus removed finds
// a cycle, the cyclic tentative vertex with the smallest back-out cost
// (ties to the earliest), adding it to removed and b; it returns b sorted.
func cheapestRounds(g *Graph, c *cycles, removed []bool, b []int) ([]int, error) {
	for c.cyclic {
		best := -1
		for v := range g.Len() {
			if c.onCycle(v) && g.kind[v] == tx.Tentative && (best == -1 || g.cost[v] < g.cost[best]) {
				best = v
			}
		}
		if best == -1 {
			return nil, ErrUnbreakable
		}
		removed[best] = true
		b = append(b, best)
		c.pass(g, removed)
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
func (s GreedyDegree) ComputeB(g *Graph) ([]int, error) {
	b, _, err := BackOut(g, s, nil)
	return b, err
}

// backOut removes one vertex per nontrivial component and round: the
// first tentative vertex, in vertex order, with the highest score.
func (GreedyDegree) backOut(g *Graph, s *Scratch) ([]int, error) {
	c := &s.cyc
	removed := s.mask(g.Len())
	var b []int
	for c.cyclic {
		best := filled(s.best, len(c.size), -1)
		score := filled(s.bestScore, len(c.size), -1)
		s.best, s.bestScore = best, score
		for v := range g.Len() {
			if !c.onCycle(v) || g.kind[v] != tx.Tentative {
				continue
			}
			id, in, out := c.comp[v], 0, 0
			for _, p := range g.pred[v] {
				if c.comp[p] == id {
					in++
				}
			}
			for _, w := range g.succ[v] {
				if c.comp[w] == id {
					out++
				}
			}
			if in*out > score[id] {
				best[id], score[id] = int32(v), in*out
			}
		}
		for id, size := range c.size {
			if size < 2 {
				continue
			}
			if best[id] == -1 {
				return nil, ErrUnbreakable
			}
			removed[best[id]] = true
			b = append(b, int(best[id]))
		}
		c.pass(g, removed)
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
	b, _, err := BackOut(g, s, nil)
	return b, err
}

func (tc TwoCycle) backOut(g *Graph, s *Scratch) ([]int, error) {
	maxExact := tc.MaxExact
	if maxExact == 0 {
		maxExact = 18
	}
	c := &s.cyc
	removed := s.mask(g.Len())
	var b []int
	// Mandatory: tentative partners of tentative/base two-cycles. Both
	// endpoints of a two-cycle lie on a cycle, so only those are visited;
	// the pairs come in TwoCycles order.
	tt := s.tt[:0]
	for u := range g.Len() {
		if !c.onCycle(u) {
			continue
		}
		for _, v := range g.succ[u] {
			if v <= u {
				continue
			}
			if _, back := slices.BinarySearch(g.succ[v], u); !back {
				continue
			}
			uT := g.kind[u] == tx.Tentative
			vT := g.kind[v] == tx.Tentative
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
				tt = append(tt, [2]int{u, v})
			default:
				return nil, ErrUnbreakable
			}
		}
	}
	// Optimal cover of the tentative/tentative two-cycles, ignoring edges
	// already covered by the mandatory removals.
	open := tt[:0]
	weights := make(map[int]int)
	for _, e := range tt {
		if removed[e[0]] || removed[e[1]] {
			continue
		}
		open = append(open, e)
		weights[e[0]] = g.Cost(e[0])
		weights[e[1]] = g.Cost(e[1])
	}
	s.tt = tt
	for _, v := range minVertexCover(open, weights, maxExact) {
		if !removed[v] {
			removed[v] = true
			b = append(b, v)
		}
	}
	// Remaining cycles: cheapest-cost greedy.
	c.pass(g, removed)
	return cheapestRounds(g, c, removed, b)
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
	b, _, err := BackOut(g, e, nil)
	return b, err
}

func (e Exhaustive) backOut(g *Graph, s *Scratch) ([]int, error) {
	maxC := e.MaxCandidates
	if maxC == 0 {
		maxC = 20
	}
	var candidates []int
	for _, v := range s.cyc.cyclicVertices(nil) {
		if g.kind[v] == tx.Tentative {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		return nil, ErrUnbreakable
	}
	if len(candidates) > maxC {
		return nil, fmt.Errorf("graph: exhaustive back-out over %d candidates exceeds limit %d",
			len(candidates), maxC)
	}
	removed := s.mask(g.Len())
	best, bestCost, bestLen := -1, 0, 0
	n := len(candidates)
	for set := 0; set < 1<<n; set++ {
		cost, size := 0, bits.OnesCount(uint(set))
		for i, v := range candidates {
			if set&(1<<i) != 0 {
				cost += g.cost[v]
			}
		}
		if best != -1 && (cost > bestCost || (cost == bestCost && size >= bestLen)) {
			continue
		}
		for i, v := range candidates {
			removed[v] = set&(1<<i) != 0
		}
		if !s.cyc.pass(g, removed) {
			best, bestCost, bestLen = set, cost, size
		}
	}
	if best == -1 {
		return nil, ErrUnbreakable
	}
	var b []int
	for i, v := range candidates {
		if best&(1<<i) != 0 {
			b = append(b, v)
		}
	}
	return b, nil
}

// AllCyclic backs out every tentative vertex lying on any cycle — the
// simplest (and most wasteful) strategy; used as the upper baseline in the
// strategy-comparison experiment (E9).
type AllCyclic struct{}

// Name implements Strategy.
func (AllCyclic) Name() string { return "all-cyclic" }

// ComputeB implements Strategy.
func (s AllCyclic) ComputeB(g *Graph) ([]int, error) {
	b, _, err := BackOut(g, s, nil)
	return b, err
}

func (AllCyclic) backOut(g *Graph, s *Scratch) ([]int, error) {
	removed := s.mask(g.Len())
	var b []int
	for _, v := range s.cyc.cyclicVertices(nil) {
		if g.kind[v] == tx.Tentative {
			b = append(b, v)
			removed[v] = true
		}
	}
	if s.cyc.pass(g, removed) {
		return nil, ErrUnbreakable
	}
	return b, nil
}
