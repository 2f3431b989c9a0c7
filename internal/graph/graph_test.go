package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/papertest"
	"tiermerge/internal/tx"
)

// example1Graph executes the paper's Example 1 histories and builds
// G(Hm, Hb).
func example1Graph(t *testing.T) (*Graph, *history.Augmented, *history.Augmented) {
	t.Helper()
	e := papertest.NewExample1()
	am, err := history.Run(history.New(e.Mobile()...), e.Origin)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := history.Run(history.New(e.BaseTxns()...), e.Origin)
	if err != nil {
		t.Fatal(err)
	}
	return BuildFromHistories(am, ab), am, ab
}

// TestExample1Footprints pins the executable profiles to the paper's
// declared read/write sets.
func TestExample1Footprints(t *testing.T) {
	e := papertest.NewExample1()
	am, err := history.Run(history.New(e.Mobile()...), e.Origin)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := history.Run(history.New(e.BaseTxns()...), e.Origin)
	if err != nil {
		t.Fatal(err)
	}
	wantR := map[string][]model.Item{
		"Tm1": {"d1", "d2"},
		"Tm2": {"d2", "d3"},
		"Tm3": {"d4", "d5", "d6"},
		"Tm4": {"d6"},
		"Tb1": {"d5"},
		"Tb2": {"d1", "d5"},
	}
	wantW := map[string][]model.Item{
		"Tm1": {"d1", "d2"},
		"Tm2": {"d3", "d4", "d5", "d6"},
		"Tm3": {"d4", "d6"},
		"Tm4": {"d6"},
		"Tb1": {"d5"},
		"Tb2": {},
	}
	check := func(a *history.Augmented) {
		for i := 0; i < a.H.Len(); i++ {
			id := a.H.Txn(i).ID
			r, w := readWrite(a.Effects[i].Items)
			if len(r) != len(wantR[id]) {
				t.Errorf("%s read set = %v, want %v", id, r, wantR[id])
			}
			for _, it := range wantR[id] {
				if !r.Has(it) {
					t.Errorf("%s read set missing %s", id, it)
				}
			}
			if len(w) != len(wantW[id]) {
				t.Errorf("%s write set = %v, want %v", id, w, wantW[id])
			}
			for _, it := range wantW[id] {
				if !w.Has(it) {
					t.Errorf("%s write set missing %s", id, it)
				}
			}
		}
	}
	check(am)
	check(ab)
}

// TestExample1Figure1 checks the precedence graph against Figure 1: the
// cycle Tb2 -> Tm1 -> Tm2 -> Tm3 -> Tb1 -> Tb2 must be present, and the
// graph must be cyclic.
func TestExample1Figure1(t *testing.T) {
	g, _, _ := example1Graph(t)
	wantEdges := [][2]string{
		{"Tb2", "Tm1"}, // Tb2 read d1, Tm1 updated it
		{"Tm1", "Tm2"}, // conflict on d2, Hm order
		{"Tm2", "Tm3"}, // conflicts on d4/d5/d6, Hm order
		{"Tm3", "Tb1"}, // Tm3 read d5, Tb1 updated it
		{"Tb1", "Tb2"}, // conflict on d5, Hb order
		{"Tm2", "Tm4"}, // conflict on d6
		{"Tm3", "Tm4"}, // conflict on d6
	}
	for _, e := range wantEdges {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing edge %s -> %s", e[0], e[1])
		}
	}
	// Edges that must NOT exist (would change the example's semantics).
	for _, e := range [][2]string{
		{"Tm1", "Tb2"}, {"Tb1", "Tm3"}, {"Tm4", "Tm3"}, {"Tb2", "Tb1"},
	} {
		if g.HasEdge(e[0], e[1]) {
			t.Errorf("unexpected edge %s -> %s", e[0], e[1])
		}
	}
	if g.Acyclic(nil) {
		t.Fatal("Example 1 graph must be cyclic")
	}
	if c := g.FindCycle(nil); len(c) < 2 {
		t.Errorf("FindCycle = %v, want a cycle", c)
	}
}

// TestExample1BackOut checks that the strategies choose B = {Tm3}, the
// paper's choice, and that removing it leaves the graph acyclic.
func TestExample1BackOut(t *testing.T) {
	g, _, _ := example1Graph(t)
	for _, s := range []Strategy{GreedyCost{}, TwoCycle{}, Exhaustive{}} {
		b, err := s.ComputeB(g)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(b) != 1 || g.ID(b[0]) != "Tm3" {
			ids := make([]string, len(b))
			for i, v := range b {
				ids[i] = g.ID(v)
			}
			t.Errorf("%s: B = %v, want [Tm3]", s.Name(), ids)
		}
		removed := map[int]bool{}
		for _, v := range b {
			removed[v] = true
		}
		if !g.Acyclic(removed) {
			t.Errorf("%s: graph still cyclic after removing B", s.Name())
		}
	}
}

// TestExample1Costs checks the Davidson back-out costs that make Tm3 the
// cheapest cycle breaker: cost(Tm1)=4, cost(Tm2)=3, cost(Tm3)=2,
// cost(Tm4)=1.
func TestExample1Costs(t *testing.T) {
	g, _, _ := example1Graph(t)
	want := map[string]int{"Tm1": 4, "Tm2": 3, "Tm3": 2, "Tm4": 1}
	for id, w := range want {
		if got := g.Cost(g.VertexByID(id)); got != w {
			t.Errorf("cost(%s) = %d, want %d", id, got, w)
		}
	}
}

func TestAcyclicWhenNoOverlap(t *testing.T) {
	m := []Access{Declare("Tm1", tx.Tentative, model.NewItemSet("a"), model.NewItemSet("a"), nil)}
	b := []Access{Declare("Tb1", tx.Base, model.NewItemSet("z"), model.NewItemSet("z"), nil)}
	g := Build(m, b)
	if !g.Acyclic(nil) {
		t.Error("disjoint footprints produced a cycle")
	}
	if len(g.Edges()) != 0 {
		t.Errorf("edges = %v, want none", g.Edges())
	}
}

func TestTwoCycleFromWriteWriteConflict(t *testing.T) {
	// Under no blind writes, a tentative and a base transaction updating
	// the same item always form a 2-cycle; only the tentative side may be
	// backed out.
	m := []Access{Declare("Tm1", tx.Tentative, model.NewItemSet("x"), model.NewItemSet("x"), nil)}
	b := []Access{Declare("Tb1", tx.Base, model.NewItemSet("x"), model.NewItemSet("x"), nil)}
	g := Build(m, b)
	pairs := referenceTwoCycles(g)
	if len(pairs) != 1 {
		t.Fatalf("TwoCycles = %v, want one pair", pairs)
	}
	for _, s := range []Strategy{TwoCycle{}, GreedyCost{}, GreedyDegree{}, Exhaustive{}, AllCyclic{}} {
		bset, err := s.ComputeB(g)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(bset) != 1 || g.ID(bset[0]) != "Tm1" {
			t.Errorf("%s: backed out %v, want the tentative Tm1", s.Name(), bset)
		}
	}
}

func TestStrategiesOnAcyclicGraph(t *testing.T) {
	g := Build(nil, nil)
	for _, s := range []Strategy{TwoCycle{}, GreedyCost{}, GreedyDegree{}, Exhaustive{}, AllCyclic{}} {
		b, err := s.ComputeB(g)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(b) != 0 {
			t.Errorf("%s: B = %v on empty graph", s.Name(), b)
		}
	}
}

// TestStrategiesAlwaysBreakAllCycles fuzzes random access patterns and
// checks the fundamental postcondition of every strategy.
func TestStrategiesAlwaysBreakAllCycles(t *testing.T) {
	strategies := []Strategy{TwoCycle{}, GreedyCost{}, GreedyDegree{}, Exhaustive{}, AllCyclic{}}
	r := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 200; trial++ {
		ms := randAccesses(r, "Tm", 2+r.Intn(5), 5, true)
		bs := randAccesses(r, "Tb", 1+r.Intn(4), 5, true)
		g := Build(ms, bs)
		for _, s := range strategies {
			b, err := s.ComputeB(g)
			if err != nil {
				t.Fatalf("trial %d, %s: %v", trial, s.Name(), err)
			}
			removed := make(map[int]bool, len(b))
			for _, v := range b {
				removed[v] = true
				if g.Kind(v) != tx.Tentative {
					t.Fatalf("trial %d, %s: backed out base transaction %s",
						trial, s.Name(), g.ID(v))
				}
			}
			if !g.Acyclic(removed) {
				t.Fatalf("trial %d, %s: cycles remain after back-out", trial, s.Name())
			}
		}
	}
}

// TestExhaustiveIsMinimal checks, on fuzzed graphs, that no strategy beats
// Exhaustive on total back-out cost.
func TestExhaustiveIsMinimal(t *testing.T) {
	r := rand.New(rand.NewSource(999))
	cost := func(g *Graph, b []int) int {
		c := 0
		for _, v := range b {
			c += g.Cost(v)
		}
		return c
	}
	for trial := 0; trial < 100; trial++ {
		ms := randAccesses(r, "Tm", 2+r.Intn(4), 3, true)
		bs := randAccesses(r, "Tb", 1+r.Intn(3), 3, true)
		g := Build(ms, bs)
		opt, err := (Exhaustive{}).ComputeB(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{TwoCycle{}, GreedyCost{}, GreedyDegree{}, AllCyclic{}} {
			b, err := s.ComputeB(g)
			if err != nil {
				t.Fatal(err)
			}
			if cost(g, b) < cost(g, opt) {
				t.Errorf("trial %d: %s cost %d beats exhaustive %d",
					trial, s.Name(), cost(g, b), cost(g, opt))
			}
		}
	}
}

func TestSCCsPartitionVertices(t *testing.T) {
	g, _, _ := example1Graph(t)
	seen := make(map[int]bool)
	total := 0
	for _, scc := range g.SCCs(nil) {
		for _, v := range scc {
			if seen[v] {
				t.Fatalf("vertex %d in two SCCs", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != g.Len() {
		t.Errorf("SCCs cover %d of %d vertices", total, g.Len())
	}
}

// TestTheorem1Direction checks the easy direction of Theorem 1 on Example 1
// data: after B is removed, an acyclic graph admits a merged serial order
// (topological), i.e. the histories became serializable.
func TestTheorem1Direction(t *testing.T) {
	g, _, _ := example1Graph(t)
	b, err := (GreedyCost{}).ComputeB(g)
	if err != nil {
		t.Fatal(err)
	}
	removed := map[int]bool{}
	for _, v := range b {
		removed[v] = true
	}
	if !g.Acyclic(removed) {
		t.Fatal("not acyclic after back-out")
	}
	// Topological order exists over the remaining vertices.
	indeg := make(map[int]int)
	for v := 0; v < g.Len(); v++ {
		if removed[v] {
			continue
		}
		for _, w := range g.Succ(v) {
			if !removed[int(w)] {
				indeg[int(w)]++
			}
		}
	}
	placed := 0
	queue := []int{}
	for v := 0; v < g.Len(); v++ {
		if !removed[v] && indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		placed++
		for _, x := range g.Succ(v) {
			w := int(x)
			if removed[w] {
				continue
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if placed != g.Len()-len(b) {
		t.Errorf("topological order placed %d of %d", placed, g.Len()-len(b))
	}
}

// TestSCCsAgainstBruteForce validates Tarjan's output against a brute-force
// mutual-reachability computation on fuzzed graphs.
func TestSCCsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 150; trial++ {
		ms := randAccesses(r, "Tm", 2+r.Intn(4), 4, true)
		bs := randAccesses(r, "Tb", 1+r.Intn(3), 4, true)
		g := Build(ms, bs)
		n := g.Len()
		// Brute force: reach[u][v] via repeated relaxation.
		reach := make([][]bool, n)
		for u := 0; u < n; u++ {
			reach[u] = make([]bool, n)
			for _, v := range g.Succ(u) {
				reach[u][v] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if !reach[u][v] {
						continue
					}
					for w := 0; w < n; w++ {
						if reach[v][w] && !reach[u][w] {
							reach[u][w] = true
							changed = true
						}
					}
				}
			}
		}
		sameSCC := func(u, v int) bool {
			return u == v || (reach[u][v] && reach[v][u])
		}
		// Tarjan's components must match the mutual-reachability relation.
		comp := make([]int, n)
		for ci, scc := range g.SCCs(nil) {
			for _, v := range scc {
				comp[v] = ci
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (comp[u] == comp[v]) != sameSCC(u, v) {
					t.Fatalf("trial %d: SCC mismatch for %d,%d (tarjan %v, brute %v)",
						trial, u, v, comp[u] == comp[v], sameSCC(u, v))
				}
			}
		}
		// And Acyclic agrees with "no vertex reaches itself".
		cyc := false
		for u := 0; u < n; u++ {
			if reach[u][u] {
				cyc = true
			}
		}
		if g.Acyclic(nil) == cyc {
			t.Fatalf("trial %d: Acyclic=%v but brute-force cyclic=%v", trial, g.Acyclic(nil), cyc)
		}
	}
}

func TestDotExport(t *testing.T) {
	g, _, _ := example1Graph(t)
	dot := g.Dot(map[int]bool{g.VertexByID("Tm3"): true})
	for _, want := range []string{
		"digraph precedence",
		`"Tm1" [shape=ellipse]`,
		`"Tb1" [shape=box]`,
		`"Tm3" [shape=ellipse, style=dashed, color=gray]`,
		`"Tb2" -> "Tm1"`,
		`"Tm3" -> "Tb1" [color=gray, style=dashed]`,
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot missing %q:\n%s", want, dot)
		}
	}
}

// readWrite returns the read and write sets that records describe.
func readWrite(items []tx.ItemEffect) (r, w model.ItemSet) {
	r, w = model.ItemSet{}, model.ItemSet{}
	for _, x := range items {
		if x.Read {
			r.Add(x.Item)
		}
		if x.Written {
			w.Add(x.Item)
		}
	}
	return r, w
}

// buildNaive is the original O(n^2 * items) pairwise construction, kept as
// the differential-testing oracle for the item-indexed Build.
func buildNaive(mobile, base []Access) [][2]string {
	type edge = [2]string
	var out []edge
	seen := make(map[edge]bool)
	conflicts := func(a, b Access) bool {
		ar, aw := readWrite(a.Items)
		br, bw := readWrite(b.Items)
		return !aw.Disjoint(br) || !ar.Disjoint(bw) || !aw.Disjoint(bw)
	}
	add := func(u, v string) {
		e := edge{u, v}
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for i := range mobile {
		for j := i + 1; j < len(mobile); j++ {
			if conflicts(mobile[i], mobile[j]) {
				add(mobile[i].ID, mobile[j].ID)
			}
		}
	}
	for i := range base {
		for j := i + 1; j < len(base); j++ {
			if conflicts(base[i], base[j]) {
				add(base[i].ID, base[j].ID)
			}
		}
	}
	for _, m := range mobile {
		for _, b := range base {
			mr, mw := readWrite(m.Items)
			br, bw := readWrite(b.Items)
			if !mr.Disjoint(bw) {
				add(m.ID, b.ID)
			}
			if !br.Disjoint(mw) {
				add(b.ID, m.ID)
			}
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

// TestIndexedBuildMatchesNaive differentially tests the item-indexed graph
// construction against the pairwise oracle on fuzzed access patterns,
// including blind writes.
func TestIndexedBuildMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	for trial := 0; trial < 300; trial++ {
		ms := randAccesses(r, "Tm", 1+r.Intn(6), 5, false)
		bs := randAccesses(r, "Tb", 1+r.Intn(5), 5, false)
		if got, want := Build(ms, bs).Edges(), buildNaive(ms, bs); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: edges diverge\n got %v\nwant %v", trial, got, want)
		}
	}
}
