package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tiermerge/internal/model"
)

// randAccesses builds n random accesses over a small item universe: reads,
// value writes (read or blind) and, with deltas, delta-pure writes all meet
// on every item.
func randAccesses(r *rand.Rand, prefix string, n, items int, deltas bool) []Access {
	out := make([]Access, n)
	for i := range out {
		reads, writes, delta := model.ItemSet{}, model.ItemSet{}, model.ItemSet{}
		for k := 0; k < 1+r.Intn(3); k++ {
			it := model.Item(fmt.Sprintf("x%d", r.Intn(items)))
			if reads.Has(it) || writes.Has(it) {
				continue
			}
			switch kind := r.Intn(4); kind {
			case 0:
				reads.Add(it)
			case 1:
				writes.Add(it) // blind write
			default:
				reads.Add(it)
				writes.Add(it)
				if kind == 3 && deltas {
					delta.Add(it)
				}
			}
		}
		out[i] = Declare(fmt.Sprintf("%s%d", prefix, i), 0, reads, writes, delta)
	}
	return out
}

func indexOf(base []Access) *BaseIndex {
	ix := NewBaseIndex(true, 0)
	for _, a := range base {
		ix.Append(a)
	}
	return ix
}

func footprint(mobile []Access) []model.Item {
	fp := model.ItemSet{}
	for _, a := range mobile {
		for _, r := range a.Items {
			fp.Add(r.Item)
		}
	}
	return fp.Items()
}

// closure returns reach[i][j]: base entry j reachable from base entry i over
// the given predecessor lists (all of which point backward).
func closure(preds [][]int32) [][]bool {
	reach := make([][]bool, len(preds))
	for j := range preds {
		for i := range reach[:j] {
			for _, q := range preds[j] {
				if int(q) == i || reach[i][q] {
					reach[i][j] = true
					break
				}
			}
		}
		reach[j] = make([]bool, len(preds))
	}
	return reach
}

// TestReducedPredecessorsPreserveReachability: the rule-2 predecessors the
// index stores are a subset of Build's all-pairs base–base edges with the
// same transitive closure.
func TestReducedPredecessorsPreserveReachability(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		base := randAccesses(r, "b", 2+r.Intn(30), 1+r.Intn(4), true)
		ix, g := indexOf(base), Build(nil, base)
		full := make([][]int32, len(base))
		reduced := make([][]int32, len(base))
		for j := range base {
			full[j] = g.Pred(j)
			for _, q := range ix.preds[j] {
				reduced[j] = append(reduced[j], q)
				if !g.HasEdge(base[q].ID, base[j].ID) {
					t.Fatalf("trial %d: reduced edge %d->%d is no rule-2 edge", trial, q, j)
				}
			}
		}
		if want, got := closure(full), closure(reduced); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: reachability diverges over %v", trial, base)
		}
	}
}

// cyclicIDs names the vertices on cycles, in vertex order.
func cyclicIDs(g *Graph) []string {
	var ids []string
	var c cycles
	c.pass(g, nil)
	for _, v := range c.cyclicVertices(nil) {
		ids = append(ids, g.ID(v))
	}
	return ids
}

// TestBuildIndexedKeepsEveryCycle: on random histories, from any view
// position, the indexed graph has exactly the full graph's cyclic vertices
// and every strategy picks the same B.
func TestBuildIndexedKeepsEveryCycle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	cyclic := 0
	for trial := 0; trial < 400; trial++ {
		items := 2 + r.Intn(5)
		mobile := randAccesses(r, "m", 1+r.Intn(5), items, true)
		base := randAccesses(r, "b", r.Intn(40), items, true)
		from := r.Intn(len(base) + 1)
		got, st := BuildIndexed(mobile, indexOf(base).View(from, footprint(mobile), nil), nil)
		want := Build(mobile, base[from:])
		if st.Viewed != len(base)-from || st.Kept != got.BaseLen {
			t.Fatalf("trial %d: stats %+v for %d viewed, %d kept", trial, st, len(base)-from, got.BaseLen)
		}
		if !reflect.DeepEqual(cyclicIDs(got), cyclicIDs(want)) {
			t.Fatalf("trial %d: cyclic vertices %v, want %v", trial, cyclicIDs(got), cyclicIDs(want))
		}
		if len(cyclicIDs(want)) > 0 {
			cyclic++
		}
		for _, s := range []Strategy{TwoCycle{}, GreedyCost{}, GreedyDegree{}, AllCyclic{}, Exhaustive{}} {
			bGot, errGot := s.ComputeB(got)
			bWant, errWant := s.ComputeB(want)
			if !reflect.DeepEqual(bGot, bWant) || (errGot == nil) != (errWant == nil) {
				t.Fatalf("trial %d: %s picks %v (%v), want %v (%v)", trial, s.Name(), bGot, errGot, bWant, errWant)
			}
		}
	}
	if cyclic < 100 {
		t.Fatalf("only %d cyclic trials; the comparison is vacuous", cyclic)
	}
}

// TestBuildIndexedFindsCycleOutsideFootprint is the ROADMAP counter-example
// to footprint-only summaries: Hb = b1{x,y}, b2{y,z}, b3{z,w} and Hm touches
// only {x,w}. The one cycle m -> b1 -> b2 -> b3 -> m runs through items and
// an entry (b2) the footprint never mentions; an unrelated b4 is left out.
func TestBuildIndexedFindsCycleOutsideFootprint(t *testing.T) {
	acc := func(id string, reads, writes []model.Item) Access {
		return Declare(id, 0, model.NewItemSet(reads...), model.NewItemSet(writes...), nil)
	}
	type is = []model.Item
	mobile := []Access{acc("m", is{"x", "w"}, is{"w"})}
	base := []Access{
		acc("b1", is{"x", "y"}, is{"x", "y"}),
		acc("b2", is{"y", "z"}, is{"z"}),
		acc("b4", is{"q"}, is{"q"}),
		acc("b3", is{"z", "w"}, is{"z"}),
	}
	g, st := BuildIndexed(mobile, indexOf(base).View(0, footprint(mobile), nil), nil)
	if st.Viewed != 4 || st.Kept != 3 {
		t.Fatalf("stats %+v, want 3 of 4 entries kept", st)
	}
	if len(referenceTwoCycles(g)) != 0 {
		t.Fatalf("two-cycles %v: the example must need the path through b2", referenceTwoCycles(g))
	}
	if got, want := cyclicIDs(g), []string{"m", "b1", "b2", "b3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cyclic vertices %v, want %v", got, want)
	}
}
