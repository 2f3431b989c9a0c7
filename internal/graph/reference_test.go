package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/papertest"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// fromLists is the graph over ids whose first nm vertices are tentative,
// with the given sorted successor lists and back-out costs, laid out the
// way build lays out its arrays; the predecessor lists are derived.
func fromLists(nm int, ids []string, succ [][]int, cost []int) *Graph {
	n := len(ids)
	g := &Graph{MobileLen: nm, BaseLen: n - nm, ids: ids, at: make([]int32, 2*(n+1)), cost: make([]int32, n)}
	pred := make([][]int, n)
	for u, vs := range succ {
		g.cost[u] = int32(cost[u])
		for _, v := range vs {
			pred[v] = append(pred[v], u)
		}
	}
	g.adj = []int32{}
	for i, lists := range [][][]int{succ, pred} {
		g.at[i*(n+1)] = int32(len(g.adj))
		for v, l := range lists {
			for _, w := range l {
				g.adj = append(g.adj, int32(w))
			}
			g.at[i*(n+1)+v+1] = int32(len(g.adj))
		}
	}
	return g
}

// referenceBuild is the map-based construction build replaced: conflict
// pairs grouped per item in a map, deduplicated through maps keyed by the
// ordered vertex pair, adjacency sorted at the end, and back-out costs from
// per-vertex reads-from maps, over per-vertex adjacency lists. It is kept
// as the reference build must match exactly.
func referenceBuild(mobile, base []Access) (g *Graph, mobileElided int) {
	nm, n := len(mobile), len(mobile)+len(base)
	ids := make([]string, n)
	succ := make([][]int, n)
	cost := make([]int, n)
	elidedPairs := 0
	type itemIndex struct{ mobile, base []itemRef }
	perItem := make(map[model.Item]*itemIndex)
	collect := func(a Access, v int) {
		ids[v] = a.ID
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
		collect(a, i)
	}
	for i, a := range base {
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
		succ[u] = append(succ[u], int(v))
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
		elidedPairs++
		if key[0] < nm && key[1] < nm {
			mobileElided++
		}
	}
	for i := range succ {
		sort.Ints(succ[i])
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
		cost[i] = 1 + len(closure)
	}
	for i := nm; i < n; i++ {
		cost[i] = 1
	}
	g = fromLists(nm, ids, succ, cost)
	g.Elided = elidedPairs
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
	case got.MobileLen != want.MobileLen || !slices.Equal(got.ids, want.ids):
		return "vertex identities differ"
	case !slices.Equal(got.cost, want.cost):
		return fmt.Sprintf("costs %v, reference %v", got.cost, want.cost)
	}
	for v := range want.Len() {
		if !slices.Equal(got.Succ(v), want.Succ(v)) {
			return fmt.Sprintf("succ(%d) = %v, reference %v", v, got.Succ(v), want.Succ(v))
		}
		if !slices.Equal(got.Pred(v), want.Pred(v)) {
			return fmt.Sprintf("pred(%d) = %v, reference %v", v, got.Pred(v), want.Pred(v))
		}
	}
	if !slices.Equal(got.at, want.at) || !slices.Equal(got.adj, want.adj) {
		return fmt.Sprintf("adjacency arrays %v %v, reference %v %v", got.at, got.adj, want.at, want.adj)
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
		got := Build(mobile, base)
		want, wantME := referenceBuild(mobile, base)
		if diff := sameGraph(got, want, got.mobileElided, wantME); diff != "" {
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

// The map-based cycle detection and strategies the mask-based pass replaced:
// one slice per strongly connected component, the cyclic vertices
// concatenated per round, a removed map[int]bool per strategy, and the
// two-cycles as a [][2]int. They are kept as the reference the back-out
// sets must match exactly (TestBackOutMatchesReference).

// referenceSCCs computes the strongly connected components of the graph minus the
// removed vertices, using Tarjan's algorithm (iterative).
func referenceSCCs(g *Graph, removed map[int]bool) [][]int {
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
			for f.childIdx < len(g.Succ(v)) {
				w := int(g.Succ(v)[f.childIdx])
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

// referenceCyclic returns every vertex that lies on some cycle (i.e. belongs
// to a strongly connected component of size > 1), honoring the removed mask.
func referenceCyclic(g *Graph, removed map[int]bool) []int {
	sccs := referenceSCCs(g, removed)
	var out []int
	for _, scc := range sccs {
		if len(scc) > 1 {
			out = append(out, scc...)
		}
	}
	sort.Ints(out)
	return out
}

// referenceTwoCycles returns every 2-cycle as vertex pairs (u < v), in
// the order TwoCycle meets them.
func referenceTwoCycles(g *Graph) [][2]int {
	var out [][2]int
	for u := range g.Len() {
		for _, x := range g.Succ(u) {
			v := int(x)
			if v <= u {
				continue
			}
			for _, w := range g.Succ(v) {
				if int(w) == u {
					out = append(out, [2]int{u, v})
					break
				}
			}
		}
	}
	return out
}

// referenceGreedyCost is GreedyCost.ComputeB as the map-based reference.
func referenceGreedyCost(g *Graph) ([]int, error) {
	removed := make(map[int]bool)
	var b []int
	for {
		cyclic := referenceCyclic(g, removed)
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

// referenceGreedyDegree is GreedyDegree.ComputeB as the map-based reference.
func referenceGreedyDegree(g *Graph) ([]int, error) {
	removed := make(map[int]bool)
	var b []int
	for {
		sccs := referenceSCCs(g, removed)
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
					if inSCC[int(p)] && !removed[int(p)] {
						in++
					}
				}
				for _, s := range g.Succ(v) {
					if inSCC[int(s)] && !removed[int(s)] {
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

// referenceTwoCycle is TwoCycle.ComputeB as the map-based reference.
func referenceTwoCycle(s TwoCycle, g *Graph) ([]int, error) {
	maxExact := s.MaxExact
	if maxExact == 0 {
		maxExact = 18
	}
	removed := make(map[int]bool)
	var b []int
	// Mandatory: tentative partners of tentative/base two-cycles.
	var ttEdges [][2]int
	for _, pair := range referenceTwoCycles(g) {
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
		cyclic := referenceCyclic(g, removed)
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

// referenceExhaustive is Exhaustive.ComputeB as the map-based reference.
func referenceExhaustive(e Exhaustive, g *Graph) ([]int, error) {
	maxC := e.MaxCandidates
	if maxC == 0 {
		maxC = 20
	}
	var candidates []int
	for _, v := range referenceCyclic(g, nil) {
		if g.Kind(v) == tx.Tentative {
			candidates = append(candidates, v)
		}
	}
	if len(candidates) == 0 {
		if len(referenceCyclic(g, nil)) == 0 {
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
		if len(referenceCyclic(g, removed)) == 0 {
			best = &cand{set: set, cost: cost}
		}
	}
	if best == nil {
		return nil, ErrUnbreakable
	}
	sort.Ints(best.set)
	return best.set, nil
}

// referenceAllCyclic is AllCyclic.ComputeB as the map-based reference.
func referenceAllCyclic(g *Graph) ([]int, error) {
	var b []int
	for _, v := range referenceCyclic(g, nil) {
		if g.Kind(v) == tx.Tentative {
			b = append(b, v)
		}
	}
	removed := make(map[int]bool, len(b))
	for _, v := range b {
		removed[v] = true
	}
	if len(referenceCyclic(g, removed)) != 0 {
		return nil, ErrUnbreakable
	}
	sort.Ints(b)
	return b, nil
}

// randGraph is a random digraph over n vertices, the first nm tentative,
// each ordered pair an edge with probability p, with random back-out
// costs: unlike a built graph it may hold cycles through base vertices
// only, which no strategy can break.
func randGraph(r *rand.Rand, n, nm int, p float64) *Graph {
	ids, succ, cost := make([]string, n), make([][]int, n), make([]int, n)
	for v := range n {
		ids[v], cost[v] = fmt.Sprintf("v%d", v), 1+r.Intn(4)
		if v >= nm {
			cost[v] = 1
		}
	}
	for u := range n {
		for v := range n {
			if u != v && r.Float64() < p {
				succ[u] = append(succ[u], v)
			}
		}
	}
	return fromLists(nm, ids, succ, cost)
}

// randRemoved marks each vertex removed with probability p.
func randRemoved(r *rand.Rand, n int, p float64) map[int]bool {
	removed := map[int]bool{}
	for v := range n {
		if r.Float64() < p {
			removed[v] = true
		}
	}
	return removed
}

// TestBackOutMatchesReference: the mask-based cycle pass yields the
// reference's components and acyclicity, with and without removed sets, and
// every strategy — through ComputeB, and through BackOut over one Scratch
// reused across all graphs — returns the reference's back-out set and
// error, on random digraphs and on built graphs of random and generated
// histories.
func TestBackOutMatchesReference(t *testing.T) {
	strategies := []struct {
		s   Strategy
		ref func(*Graph) ([]int, error)
	}{
		{GreedyCost{}, referenceGreedyCost},
		{GreedyDegree{}, referenceGreedyDegree},
		{TwoCycle{}, func(g *Graph) ([]int, error) { return referenceTwoCycle(TwoCycle{}, g) }},
		{TwoCycle{MaxExact: 2}, func(g *Graph) ([]int, error) { return referenceTwoCycle(TwoCycle{MaxExact: 2}, g) }},
		{Exhaustive{}, func(g *Graph) ([]int, error) { return referenceExhaustive(Exhaustive{}, g) }},
		{Exhaustive{MaxCandidates: 6}, func(g *Graph) ([]int, error) { return referenceExhaustive(Exhaustive{MaxCandidates: 6}, g) }},
		{AllCyclic{}, referenceAllCyclic},
	}
	var s Scratch // one owner, every graph
	cyclic, unbreakable := 0, 0
	check := func(name string, g *Graph, r *rand.Rand) {
		t.Helper()
		for _, removed := range []map[int]bool{nil, randRemoved(r, g.Len(), 0.2), randRemoved(r, g.Len(), 0.5)} {
			got, want := g.SCCs(removed), referenceSCCs(g, removed)
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("%s: SCCs(%v) = %v, reference %v", name, removed, got, want)
			}
			if got, want := g.Acyclic(removed), len(referenceCyclic(g, removed)) == 0; got != want {
				t.Fatalf("%s: Acyclic(%v) = %v, reference %v", name, removed, got, want)
			}
		}
		if len(referenceCyclic(g, nil)) > 0 {
			cyclic++
		}
		for _, st := range strategies {
			want, errWant := st.ref(g)
			if errors.Is(errWant, ErrUnbreakable) {
				unbreakable++
			}
			got, errGot := st.s.ComputeB(g)
			if !slices.Equal(got, want) || fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("%s: %s ComputeB = %v (%v), reference %v (%v)", name, st.s.Name(), got, errGot, want, errWant)
			}
			got, isCyclic, errGot := BackOut(g, st.s, &s)
			if !slices.Equal(got, want) || fmt.Sprint(errGot) != fmt.Sprint(errWant) || isCyclic != (len(referenceCyclic(g, nil)) > 0) {
				t.Fatalf("%s: %s BackOut = %v, %v (%v), reference %v (%v)", name, st.s.Name(), got, isCyclic, errGot, want, errWant)
			}
		}
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(10)
		check(fmt.Sprintf("random digraph %d", trial), randGraph(r, n, r.Intn(n+1), 0.05+0.3*r.Float64()), r)
	}
	for trial := 0; trial < 200; trial++ {
		deltas := trial%2 == 0
		items := 2 + r.Intn(6)
		mobile := randAccesses(r, "m", 1+r.Intn(8), items, deltas)
		base := randAccesses(r, "b", r.Intn(20), items, deltas)
		check(fmt.Sprintf("random histories %d", trial), Build(mobile, base), r)
	}
	for seed := int64(1); seed <= 10; seed++ {
		cfg := workload.Config{Seed: seed, Items: 12, HotItems: 4, PHot: 0.5, PCommutative: 0.2}
		m, b := generatedAccesses(t, cfg, 10, 24, seed%2 == 0)
		check(fmt.Sprintf("generator seed %d", seed), Build(m, b), r)
	}
	t.Logf("%d cyclic graphs, %d unbreakable strategy runs", cyclic, unbreakable)
	if cyclic < 200 || unbreakable == 0 {
		t.Fatalf("%d cyclic graphs, %d unbreakable runs: the comparison is vacuous", cyclic, unbreakable)
	}
}

// namedStrategy is a strategy from outside the package: BackOut must call
// its ComputeB.
type namedStrategy struct{ calls *int }

func (namedStrategy) Name() string { return "named" }

func (n namedStrategy) ComputeB(g *Graph) ([]int, error) {
	*n.calls++
	return referenceGreedyCost(g)
}

// TestBackOutCallsForeignStrategy: a strategy this package does not define
// is asked through ComputeB, and only for a cyclic graph.
func TestBackOutCallsForeignStrategy(t *testing.T) {
	g, _, _ := example1Graph(t)
	calls := 0
	b, cyclic, err := BackOut(g, namedStrategy{&calls}, nil)
	want, _ := referenceGreedyCost(g)
	if err != nil || !cyclic || !slices.Equal(b, want) || calls != 1 {
		t.Fatalf("BackOut = %v, %v, %v after %d calls; want %v after 1", b, cyclic, err, calls, want)
	}
	acyclic := Build([]Access{Declare("m", tx.Tentative, model.NewItemSet("x"), nil, nil)}, nil)
	if b, cyclic, err := BackOut(acyclic, namedStrategy{&calls}, nil); b != nil || cyclic || err != nil || calls != 1 {
		t.Fatalf("acyclic BackOut = %v, %v, %v after %d calls", b, cyclic, err, calls)
	}
}
