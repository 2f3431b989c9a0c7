package replica

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/graph"
	"tiermerge/internal/history"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the indexed base history behind checkTokenLocked: a captured view
// against the literal merge over the same entries — while the history keeps
// growing, from an interior Strategy 1 position, after an interior insert —
// and the cost of a reconnect against the length of the prefix. The first
// runs under -race in scripts/check.sh.

// literalReport is the reference: merge.Merge over the cluster's entries
// from pos on, built from the entries themselves (no index involved).
func literalReport(t *testing.T, b *BaseCluster, pos int, hm *history.Augmented) *merge.Report {
	t.Helper()
	hb := &history.Augmented{H: &history.History{}}
	b.mu.Lock()
	for _, e := range b.entries[pos:] {
		hb.H.Append(e.t)
		hb.Effects = append(hb.Effects, e.eff)
	}
	b.mu.Unlock()
	rep, err := merge.Merge(hm, hb, b.cfg.MergeOptions)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// captureView takes the snapshot a reconnect with token ck would prepare
// against.
func captureView(t *testing.T, b *BaseCluster, ck Checkout, hm *history.Augmented) prefixSnapshot {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	pos, fb := b.checkTokenLocked(ck, footprintOf(hm))
	if fb != FallbackNone {
		t.Fatalf("snapshot fell back: %v", fb)
	}
	return prefixSnapshot{pos: pos, view: b.windowPrefix().View(pos, footprintOf(hm), nil)}
}

// indexedReport merges hm against a captured view.
func indexedReport(t *testing.T, b *BaseCluster, snap prefixSnapshot, hm *history.Augmented) (*merge.Report, graph.ViewStats) {
	t.Helper()
	rep, st, err := merge.MergeIndexed(hm, snap.view, nil, b.cfg.MergeOptions)
	if err != nil {
		t.Fatal(err)
	}
	return rep, st
}

// priceWatcher runs the tentative history the tests share: read the price p,
// deposit into a0. A base SetPrice of p followed by a base audit of p and a0
// closes the cycle m -> SetPrice -> Audit -> m.
func priceWatcher(t *testing.T, m *MobileNode) *history.Augmented {
	t.Helper()
	if err := m.Run(tx.MustNew("T"+m.ID, tx.Tentative,
		tx.Read("p"), tx.Update("a0", expr.Add(expr.Var("a0"), expr.Const(5))))); err != nil {
		t.Fatal(err)
	}
	return m.Augmented()
}

func mustExecBase(t *testing.T, b BaseTier, txns ...*tx.Transaction) {
	t.Helper()
	for _, bt := range txns {
		if err := b.ExecBase(bt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestViewStaysValidUnderAppend: a view captured once keeps producing the
// report of the prefix it captured while ExecBase appends to the history and
// newer snapshots grow the index behind it.
func TestViewStaysValidUnderAppend(t *testing.T) {
	b := NewBaseCluster(fleetOrigin(), Config{})
	m := NewMobileNode("m0", b)
	hm := priceWatcher(t, m)
	mustExecBase(t, b, workload.SetPrice("B0", tx.Base, "p", 60), workload.Audit("B1", tx.Base, "p", "a0"))
	snap := captureView(t, b, m.ck, hm)
	want := reportOutcome(literalReport(t, b, 0, hm))
	if rep, _ := indexedReport(t, b, snap, hm); !rep.Conflict {
		t.Fatal("the fixture must conflict")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			bt := workload.Deposit(fmt.Sprintf("D%d", i), tx.Base, "a0", 1)
			if i%3 == 0 {
				bt = workload.SetPrice(fmt.Sprintf("P%d", i), tx.Base, "p", 70)
			}
			if err := b.ExecBase(bt); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		rep, st := indexedReport(t, b, snap, hm)
		if got := reportOutcome(rep); got != want || st.Viewed != 2 {
			t.Fatalf("round %d: view of 2 entries drifted (viewed %d):\ngot  %s\nwant %s", i, st.Viewed, got, want)
		}
		captureView(t, b, m.ck, hm) // grows the index under the old view
	}
	wg.Wait()
	if snap := captureView(t, b, m.ck, hm); snap.view.Len() != 302 {
		t.Fatalf("final view holds %d entries, want 302", snap.view.Len())
	}
}

// TestStrategy1ViewFromPosition: a Strategy 1 view starts at the checkout
// position — entries before it are not part of Hb, however conflicting — and
// an interior insert rebuilds the index with the cache, after which a view
// sees the shifted history.
func TestStrategy1ViewFromPosition(t *testing.T) {
	b := NewBaseCluster(fleetOrigin(), Config{Origin: Strategy1})
	cycle := func(tag string) []*tx.Transaction {
		return []*tx.Transaction{workload.SetPrice("S"+tag, tx.Base, "p", 60), workload.Audit("A"+tag, tx.Base, "p", "a0")}
	}
	check := func(m *MobileNode, hm *history.Augmented, wantConflict bool, wantViewed int) {
		t.Helper()
		rep, st := indexedReport(t, b, captureView(t, b, m.ck, hm), hm)
		if got, want := reportOutcome(rep), reportOutcome(literalReport(t, b, m.ck.Pos, hm)); got != want {
			t.Fatalf("%s from position %d:\nindexed %s\nliteral %s", m.ID, m.ck.Pos, got, want)
		}
		if rep.Conflict != wantConflict || st.Viewed != wantViewed {
			t.Fatalf("%s from position %d: conflict=%v viewed=%d, want %v and %d", m.ID, m.ck.Pos, rep.Conflict, st.Viewed, wantConflict, wantViewed)
		}
	}
	mustExecBase(t, b, cycle("1")...)
	early := NewMobileNode("early", b) // position 2: the cycle-closing pair is behind it
	hmEarly := priceWatcher(t, early)
	mustExecBase(t, b, workload.Deposit("D1", tx.Base, "b1", 1))
	check(early, hmEarly, false, 1)

	b.mu.Lock()
	before := b.prefix.index
	b.mu.Unlock()
	if out, err := early.ConnectMerge(); err != nil || !out.Merged || out.Saved != 1 {
		t.Fatalf("interior insert: %+v, %v", out, err)
	}
	mustExecBase(t, b, cycle("2")...)
	fresh := NewMobileNode("fresh", b) // position 6, past the insert at 2
	hmFresh := priceWatcher(t, fresh)
	mustExecBase(t, b, cycle("3")...)
	check(fresh, hmFresh, true, 2)
	b.mu.Lock()
	rebuilt := b.prefix.index != before && b.prefix.index.Len() == len(b.entries)
	b.mu.Unlock()
	if !rebuilt {
		t.Error("the interior insert did not rebuild the index")
	}
}

// TestReconnectCostIndependentOfPrefix: the index is paid per base commit,
// so a conflict-free reconnect allocates the same whether 64 or 2048 entries
// precede it — even when they all touch the item it touches.
func TestReconnectCostIndependentOfPrefix(t *testing.T) {
	reconnectBytes := func(commits int) uint64 {
		b := NewBaseCluster(fleetOrigin(), Config{})
		for i := 0; i < commits; i++ {
			mustExecBase(t, b, workload.Deposit(fmt.Sprintf("B%d", i), tx.Base, "a0", 1))
		}
		m := NewMobileNode("m0", b)
		best := ^uint64(0)
		for round := 0; round < 5; round++ { // the minimum drops slice-growth steps
			if err := m.Run(workload.Deposit(fmt.Sprintf("T%d", round), tx.Tentative, "a0", 5)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.PreviewMerge(); err != nil { // index the commits off the meter
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := m.ConnectMerge()
			runtime.ReadMemStats(&after)
			if err != nil || out.Saved != 1 {
				t.Fatalf("reconnect after %d commits: %+v, %v", commits, out, err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	short, long := reconnectBytes(64), reconnectBytes(2048)
	t.Logf("one reconnect allocates %d B after 64 commits, %d B after 2048", short, long)
	if long > 2*short {
		t.Errorf("a reconnect after 2048 commits allocates %d B, more than twice the %d B after 64", long, short)
	}
}

// TestCrossShardReconnectCostIndependentOfPrefix is the 4-shard twin: with
// cross-shard commits in the window every merge spans every shard and views
// the combined index, which the tier keeps across merges — so a reconnect
// still allocates the same whether 64 or 2048 cross-shard commits precede it.
func TestCrossShardReconnectCostIndependentOfPrefix(t *testing.T) {
	cfg := Config{ShardFn: func(it model.Item) int { return int(it[len(it)-1]-'0') % 4 }}
	reconnectBytes := func(commits int) uint64 {
		s := NewShardedBase(fleetOrigin(), 4, cfg)
		for i := 0; i < commits; i++ {
			from, to := model.Item(fmt.Sprintf("a%d", i%4)), model.Item(fmt.Sprintf("a%d", (i+1)%4))
			mustExecBase(t, s, workload.Transfer(fmt.Sprintf("B%d", i), tx.Base, from, to, 1))
		}
		// Another mobile's merge indexes the commits off the meter; a preview
		// would not, it never touches the kept index.
		w := NewShardedMobileNode("w", s)
		if err := w.Run(workload.Deposit("W", tx.Tentative, "a2", 5)); err != nil {
			t.Fatal(err)
		}
		if out, err := w.ConnectMerge(); err != nil || out.Saved != 1 {
			t.Fatalf("warm-up after %d commits: %+v, %v", commits, out, err)
		}
		m := NewShardedMobileNode("m0", s)
		best := ^uint64(0)
		for round := 0; round < 5; round++ { // the minimum drops slice-growth steps
			if err := m.Run(workload.Deposit(fmt.Sprintf("T%d", round), tx.Tentative, "a0", 5)); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := m.ConnectMerge()
			runtime.ReadMemStats(&after)
			if err != nil || out.Saved != 1 {
				t.Fatalf("reconnect after %d commits: %+v, %v", commits, out, err)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		if c := s.Counters(); c.CrossShardMerges < 6 {
			t.Fatalf("after %d commits only %d of 6 merges spanned the shards", commits, c.CrossShardMerges)
		}
		return best
	}
	short, long := reconnectBytes(64), reconnectBytes(2048)
	t.Logf("one cross-shard reconnect allocates %d B after 64 commits, %d B after 2048", short, long)
	if long > 2*short {
		t.Errorf("a cross-shard reconnect after 2048 commits allocates %d B, more than twice the %d B after 64", long, short)
	}
}
