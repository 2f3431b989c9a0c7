package merge

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"tiermerge/internal/graph"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// keptBytes is what a built graph holds: the Graph itself, per vertex an
// identity, a cost and two adjacency offsets (a successor and a
// predecessor one, and two closing offsets), and per edge a successor and
// a predecessor entry.
func keptBytes(g *graph.Graph) uint64 {
	n, m := g.Len(), 0
	for v := range n {
		m += len(g.Succ(v))
	}
	const i32 = unsafe.Sizeof(int32(0))
	perVertex := unsafe.Sizeof("") + 3*i32
	return uint64(unsafe.Sizeof(graph.Graph{}) + uintptr(n)*perVertex + 2*i32 + uintptr(2*m)*i32)
}

// bytesPerRun is the mean heap allocation of f over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestMergeIndexedAllocs: the graph phase of MergeIndexed — BuildIndexed,
// then BackOut's cycle pass and two-cycle back-out — run through its
// owner's warm Scratch allocates what the report's graph keeps plus a small
// constant (the back-out set and the vertex cover's small maps), on a
// conflict-heavy-shaped merge: 16 tentative transactions drawing 4 hot items
// of 128 against 32 base entries, with dense two-cycles. The graph keeps
// 1 012 B there and the phase allocates 1 160 B; with a kind array, word
// costs and a slice header per adjacency list the same graph kept 2 456 B,
// beyond the slack.
func TestMergeIndexedAllocs(t *testing.T) {
	cfg := workload.Config{Seed: 3, Items: 128, HotItems: 4, PHot: 0.25, PCommutative: 0.2}
	gen := workload.NewGenerator(cfg)
	origin := gen.OriginState()
	hb, err := gen.RunHistory(tx.Base, 32, origin)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := gen.RunHistory(tx.Tentative, 16, origin)
	if err != nil {
		t.Fatal(err)
	}
	ix := graph.NewBaseIndex(true, 0)
	for i, eff := range hb.Effects {
		ix.Append(graph.AccessOf(hb.H.Txn(i), eff, true))
	}
	footprint := model.ItemSet{}
	for _, eff := range hm.Effects {
		for _, r := range eff.Items {
			footprint.Add(r.Item)
		}
	}
	var s graph.Scratch
	view := ix.View(0, footprint.Items(), nil)
	acc := accessesFor(hm, Options{})
	phase := func(s *graph.Scratch) *graph.Graph {
		g, _ := graph.BuildIndexed(acc, view, s)
		if _, _, err := graph.BackOut(g, graph.TwoCycle{}, s); err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := phase(&s) // the owner's scratch grows to this merge's size
	twoCycles := 0
	for u := range g.Len() {
		for _, v := range g.Succ(u) {
			if _, back := slices.BinarySearch(g.Succ(int(v)), int32(u)); back && u < int(v) {
				twoCycles++
			}
		}
	}
	b, cyclic, err := graph.BackOut(g, graph.TwoCycle{}, &s)
	if err != nil || !cyclic || twoCycles < 8 || g.BaseLen == 0 {
		t.Fatalf("%d two-cycles, %d base vertices, B = %v (%v): want a dense cyclic merge", twoCycles, g.BaseLen, b, err)
	}
	kept := keptBytes(g)
	warm := bytesPerRun(50, func() { phase(&s) })
	fresh := bytesPerRun(50, func() { phase(nil) })
	t.Logf("%d vertices, %d two-cycles, |B| = %d: the graph keeps %d B; the phase allocates %d B through a warm scratch, %d B with fresh arrays",
		g.Len(), twoCycles, len(b), kept, warm, fresh)
	const slack = 1024
	if warm > kept+slack {
		t.Errorf("the graph phase allocates %d B through a warm scratch; the graph keeps %d B (+%d allowed)", warm, kept, slack)
	}
}
