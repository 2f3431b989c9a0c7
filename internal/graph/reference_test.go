package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/papertest"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// referenceBuild is the map-based construction build replaced: conflict
// pairs grouped per item in a map, deduplicated through maps keyed by the
// ordered vertex pair, adjacency sorted at the end, and back-out costs from
// per-vertex reads-from maps. It is kept as the reference build must match
// exactly.
func referenceBuild(mobile, base []Access) (g *Graph, mobileElided int) {
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
			ref := itemRef{vertex: int32(v), reads: reads, writes: writes, delta: delta}
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
	edges := make(map[[2]int]struct{})
	elided := make(map[[2]int]struct{})
	pair := func(u, v int32, bothDelta bool) {
		key := [2]int{int(u), int(v)}
		if bothDelta {
			elided[key] = struct{}{}
			return
		}
		if _, dup := edges[key]; dup {
			return
		}
		edges[key] = struct{}{}
		g.succ[u] = append(g.succ[u], int(v))
		g.pred[v] = append(g.pred[v], int(u))
	}
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
	readersOf := make([][]int, nm)
	lastWriter := make(map[model.Item]int)
	for j, a := range mobile {
		seen := make(map[int]bool)
		eachItem(a, func(it model.Item, reads, _, _ bool) {
			if w, ok := lastWriter[it]; ok && reads && !seen[w] {
				seen[w] = true
				readersOf[w] = append(readersOf[w], j)
			}
		})
		eachItem(a, func(it model.Item, _, writes, _ bool) {
			if writes {
				lastWriter[it] = j
			}
		})
	}
	for i := range mobile {
		closure := make(map[int]bool)
		stack := []int{i}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, r := range readersOf[v] {
				if !closure[r] {
					closure[r] = true
					stack = append(stack, r)
				}
			}
		}
		delete(closure, i)
		g.cost[i] = 1 + len(closure)
	}
	for i := nm; i < n; i++ {
		g.cost[i] = 1
	}
	return g, mobileElided
}

// sameGraph reports the first difference between two graphs over the same
// vertices, or "".
func sameGraph(got, want *Graph, gotME, wantME int) string {
	switch {
	case got.Elided != want.Elided:
		return fmt.Sprintf("Elided %d, reference %d", got.Elided, want.Elided)
	case gotME != wantME:
		return fmt.Sprintf("mobile-elided %d, reference %d", gotME, wantME)
	case !slices.Equal(got.ids, want.ids) || !slices.Equal(got.kind, want.kind):
		return "vertex identities differ"
	case !slices.Equal(got.cost, want.cost):
		return fmt.Sprintf("costs %v, reference %v", got.cost, want.cost)
	}
	for v := range want.succ {
		if !slices.Equal(got.succ[v], want.succ[v]) {
			return fmt.Sprintf("succ(%d) = %v, reference %v", v, got.succ[v], want.succ[v])
		}
		if !slices.Equal(got.pred[v], want.pred[v]) {
			return fmt.Sprintf("pred(%d) = %v, reference %v", v, got.pred[v], want.pred[v])
		}
	}
	return ""
}

// generatedAccesses runs a generated tentative and base history from one
// origin and returns their accesses, with or without delta classification.
func generatedAccesses(t *testing.T, cfg workload.Config, nm, nb int, deltas bool) (mobile, base []Access) {
	t.Helper()
	gen := workload.NewGenerator(cfg)
	origin := gen.OriginState()
	am, err := gen.RunHistory(tx.Tentative, nm, origin)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := gen.RunHistory(tx.Base, nb, origin)
	if err != nil {
		t.Fatal(err)
	}
	return accessesOf(am, deltas), accessesOf(ab, deltas)
}

// TestBuildMatchesReference: build yields the reference's successors,
// predecessors, elided counts and costs, vertex for vertex, on generated
// histories with hot items and pure increments (deltas on and off), on
// random declared accesses, and on the paper's Example 1.
func TestBuildMatchesReference(t *testing.T) {
	check := func(name string, mobile, base []Access) {
		t.Helper()
		got, gotME := build(mobile, base)
		want, wantME := referenceBuild(mobile, base)
		if diff := sameGraph(got, want, gotME, wantME); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, deltas := range []bool{true, false} {
			cfg := workload.Config{Seed: seed, Items: 16, HotItems: 3, PHot: 0.4, PCommutative: 0.3 + 0.03*float64(seed)}
			m, b := generatedAccesses(t, cfg, 12, 24, deltas)
			check(fmt.Sprintf("generator seed %d deltas=%v", seed, deltas), m, b)
			r := rand.New(rand.NewSource(seed))
			check(fmt.Sprintf("random seed %d deltas=%v", seed, deltas),
				randAccesses(r, "m", 10, 6, deltas), randAccesses(r, "b", 20, 6, deltas))
		}
	}
	e := papertest.NewExample1()
	am, err := history.Run(history.New(e.Mobile()...), e.Origin)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := history.Run(history.New(e.BaseTxns()...), e.Origin)
	if err != nil {
		t.Fatal(err)
	}
	check("example 1", AccessesOf(am), AccessesOf(ab))
	check("example 1 deltas", DeltaAccessesOf(am), DeltaAccessesOf(ab))
	check("empty", nil, nil)
}
