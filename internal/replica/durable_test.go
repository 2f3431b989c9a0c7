package replica

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"tiermerge/internal/expr"
	"tiermerge/internal/fault"
	"tiermerge/internal/history"
	"tiermerge/internal/model"
	"tiermerge/internal/store"
	"tiermerge/internal/tx"
	"tiermerge/internal/wal"
	"tiermerge/internal/workload"
)

// --- Satellite: journals must reach stable media before a commit is acked.

// TestBaseJournalSyncedBeforeAck models a power loss (not just a process
// crash) with fault.SyncWriter: only bytes covered by a completed Sync
// survive. Every acknowledged base commit must be recoverable from the
// persisted image. Regression: AttachJournal used to wrap a bare
// io.Writer and nothing ever synced, so an acked commit could vanish.
func TestBaseJournalSyncedBeforeAck(t *testing.T) {
	w := fault.NewSyncWriter()
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "y", 5)); err != nil {
		t.Fatal(err)
	}

	// Power loss now: recover from the durable bytes only.
	rec, _, err := RecoverBaseCluster(bytes.NewReader(w.Persisted()), Config{})
	if err != nil {
		t.Fatalf("recovery from persisted image: %v", err)
	}
	if !rec.Master().Equal(b.Master()) {
		t.Errorf("recovered master %s != acked master %s (acked commit lost on power loss)",
			rec.Master(), b.Master())
	}
	if rec.WindowID() != b.WindowID() {
		t.Errorf("recovered window %d != %d", rec.WindowID(), b.WindowID())
	}
}

// TestBaseJournalSyncFailureBlocksAck: when the flush fails, the commit
// must not be acknowledged — crash-between-write-and-sync is recoverable
// as "never happened", not acked-and-lost.
func TestBaseJournalSyncFailureBlocksAck(t *testing.T) {
	w := fault.NewSyncWriter()
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	w.FailAfter(w.Syncs()) // every further flush fails
	err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10))
	if !errors.Is(err, fault.ErrSyncFailed) {
		t.Fatalf("ExecBase with failing sync = %v, want ErrSyncFailed", err)
	}
	// The persisted image must recover cleanly and must not contain the
	// unacknowledged commit.
	rec, _, rerr := RecoverBaseCluster(bytes.NewReader(w.Persisted()), Config{})
	if rerr != nil {
		t.Fatalf("recovery from persisted image: %v", rerr)
	}
	if rec.HistoryLen() != 0 {
		t.Errorf("unacked commit present after recovery (history len %d)", rec.HistoryLen())
	}
}

// TestBaseCommitsShareOneFsync: a base commit on an item whose last writer
// is still in its fsync does not wait for that fsync — it shares the next
// one — and every record-boundary prefix of the persisted journal recovers
// to a prefix of the commit order. T1: x := x + 1 parks in the journal's
// fsync; T2: x := x * 2 must ack meanwhile, and no crash image may hold T2
// without T1 (the log is one ordered stream, so T2's fsync carries T1's
// records too).
func TestBaseCommitsShareOneFsync(t *testing.T) {
	w := &gatedSync{SyncWriter: fault.NewSyncWriter()}
	b := NewBaseCluster(model.StateOf(map[model.Item]model.Value{"x": 5}), Config{})
	if err := b.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	parked, release := w.hold()
	defer release()
	images := [][]byte{w.Persisted()}
	done1 := make(chan error, 1)
	go func() {
		done1 <- b.ExecBase(tx.MustNew("T1", tx.Base, tx.Update("x", expr.Add(expr.Var("x"), expr.Const(1)))))
	}()
	<-parked
	images = append(images, w.Persisted())
	if err := execWithin(b, tx.MustNew("T2", tx.Base, tx.Update("x", expr.Mul(expr.Var("x"), expr.Const(2)))), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	acked := w.Persisted()
	release()
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	images = append(images, acked, w.Persisted())

	// Recovered master per committed prefix of T1, T2.
	want := []model.Value{5, 6, 12}
	for i, img := range images {
		scanned, err := wal.Scan(bytes.NewReader(img), wal.Strict)
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		for _, end := range scanned.Ends {
			rec, _, err := RecoverBaseCluster(bytes.NewReader(img[:end]), Config{})
			if err != nil {
				t.Fatalf("image %d, prefix %d bytes: %v", i, end, err)
			}
			var ids []string
			for _, e := range rec.entries {
				ids = append(ids, e.t.ID)
			}
			n := len(ids)
			if n > 2 || (n >= 1 && ids[0] != "T1") || (n == 2 && ids[1] != "T2") {
				t.Fatalf("image %d, prefix %d bytes recovers %v: not a prefix of [T1 T2]", i, end, ids)
			}
			if got := rec.Master().Get("x"); got != want[n] {
				t.Errorf("image %d, prefix %d bytes: x = %d after %v, want %d", i, end, got, ids, want[n])
			}
		}
	}
	rec, _, err := RecoverBaseCluster(bytes.NewReader(acked), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.HistoryLen() != 2 {
		t.Errorf("T2 acked but the persisted journal recovers %d commits, want 2", rec.HistoryLen())
	}
}

// TestMergeSyncedBeforeAck: a reconnect merge's installed forwarded
// updates must survive a power loss once the mobile node is told its work
// is saved.
func TestMergeSyncedBeforeAck(t *testing.T) {
	w := fault.NewSyncWriter()
	b := NewBaseCluster(origin(), Config{})
	if err := b.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverBaseCluster(bytes.NewReader(w.Persisted()), Config{})
	if err != nil {
		t.Fatalf("recovery from persisted image: %v", err)
	}
	if !rec.Master().Equal(b.Master()) {
		t.Errorf("merged updates lost on power loss: recovered %s, acked %s",
			rec.Master(), b.Master())
	}
}

// TestMobileJournalSyncedBeforeAck: same property for the mobile tier — an
// acknowledged tentative transaction must be recoverable from the durable
// image of its journal.
func TestMobileJournalSyncedBeforeAck(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	w := fault.NewSyncWriter()
	if err := m.AttachJournal(w); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "x", 3)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverMobileNode("m1", bytes.NewReader(w.Persisted()))
	if err != nil {
		t.Fatalf("recovery from persisted image: %v", err)
	}
	if rec.Pending() != 1 {
		t.Errorf("acked tentative transaction lost on power loss (recovered %d)", rec.Pending())
	}
}

// --- The base history, the prefix cache and the segment log must not grow
// without bound across windows.

// mergeDeposit reconnects a fresh mobile carrying one tentative deposit and
// requires the merge to save it.
func mergeDeposit(t *testing.T, b *BaseCluster, id string, item model.Item) {
	t.Helper()
	m := NewMobileNode(id, b)
	if err := m.Run(workload.Deposit("T"+id, tx.Tentative, item, 1)); err != nil {
		t.Fatal(err)
	}
	if out, err := m.ConnectMerge(); err != nil || !out.Merged || out.Saved != 1 {
		t.Fatalf("merge %s = %+v, %v; want 1 saved", id, out, err)
	}
}

// TestPrefixCacheTrimmedOnWindowAdvance (white-box): a merge builds the
// prefix cache, and window advance drops the closed window's cache.
func TestPrefixCacheTrimmedOnWindowAdvance(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 1)); err != nil {
		t.Fatal(err)
	}
	mergeDeposit(t, b, "m1", "y")
	b.mu.Lock()
	cached := b.prefix.index != nil && b.prefix.index.Len() > 0
	b.mu.Unlock()
	if !cached {
		t.Fatal("prefix cache not built by the merge")
	}
	b.AdvanceWindow()
	b.mu.Lock()
	survived := b.prefix.index != nil
	b.mu.Unlock()
	if survived {
		t.Error("prefix cache survived window advance")
	}
}

// TestStoreBoundedAcrossWindows (soak): across many windows of commits and
// merges on a durable cluster checkpointed every window, what the base
// keeps stays bounded — the history holds one window's entries, window
// advance drops the prefix cache, and the segment log stays one
// checkpoint interval long.
func TestStoreBoundedAcrossWindows(t *testing.T) {
	b, _, err := OpenBase(t.TempDir(), origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.CloseStore()
	const windows, perWindow = 60, 8
	var after10 int64
	for wnd := 0; wnd < windows; wnd++ {
		for i := 0; i < perWindow; i++ {
			id := fmt.Sprintf("T%d.%d", wnd, i)
			if err := b.ExecBase(workload.Deposit(id, tx.Base, "x", 1)); err != nil {
				t.Fatal(err)
			}
		}
		mergeDeposit(t, b, fmt.Sprintf("m%d", wnd), "y")
		// perWindow base commits plus the merge's forwarded write-back.
		if n := b.HistoryLen(); n > perWindow+1 {
			t.Fatalf("window %d: history holds %d entries, bound %d", wnd, n, perWindow+1)
		}
		b.AdvanceWindow()
		b.mu.Lock()
		cached := b.prefix.index != nil
		b.mu.Unlock()
		if cached {
			t.Fatalf("window %d: prefix cache survived window advance", wnd)
		}
		if err := b.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if wnd == 9 {
			after10 = b.LogSize()
		}
	}
	if after10 == 0 {
		t.Fatal("no segment log on disk after 10 windows")
	}
	if final := b.LogSize(); final > after10 {
		t.Errorf("segment log grew across windows: %d bytes after 10 windows, %d after %d",
			after10, final, windows)
	}
}

// TestReconnectAllocIndependentOfItems: a reconnect consults the base
// history through read/write sets, so what it allocates must not scale with
// the number of items the cluster holds. Regression: the prefix cache
// materialized a full base state per history position from the version
// chains, O(items) per base commit under the cluster mutex.
func TestReconnectAllocIndependentOfItems(t *testing.T) {
	reconnectBytes := func(items int) uint64 {
		initial := model.NewState()
		for i := 0; i < items; i++ {
			initial.Set(workload.ItemName(i), 100)
		}
		b, _, err := OpenBase(t.TempDir(), initial, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer b.CloseStore()
		for i := 0; i < 64; i++ {
			it := workload.ItemName(1 + i%63)
			if err := b.ExecBase(workload.Deposit(fmt.Sprintf("Tb%d", i), tx.Base, it, 1)); err != nil {
				t.Fatal(err)
			}
		}
		// The same tentative history on both clusters: one deposit on an
		// item no base commit touches, run on a replica of that item alone
		// so Hm's own states do not grow with the cluster either.
		it0 := workload.ItemName(0)
		hm, err := history.Run(history.New(workload.Deposit("Tm1", tx.Tentative, it0, 1)),
			model.State{it0: initial.Get(it0)})
		if err != nil {
			t.Fatal(err)
		}
		ck := Checkout{MobileID: "m1", WindowID: b.WindowID()}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := b.Merge(ck, hm)
		runtime.ReadMemStats(&after)
		if err != nil || !out.Merged || out.Saved != 1 {
			t.Fatalf("merge on %d items = %+v, %v; want 1 saved", items, out, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := reconnectBytes(64), reconnectBytes(4096)
	t.Logf("reconnect allocated %d B on 64 items, %d B on 4096 items", small, large)
	if large > 2*small {
		t.Errorf("reconnect on 4096 items allocated %d B, more than 2x the %d B on 64 items", large, small)
	}
}

// --- Strategy 1 interior inserts land on the state a serial run of the
// installed history produces, at every position.

// checkStateAtOracle compares the cluster's per-position states and its
// master against a serial run of its installed entries from the window
// origin.
func checkStateAtOracle(t *testing.T, name string, b *BaseCluster) {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	h := history.New()
	for _, e := range b.entries {
		h.Append(e.t)
	}
	oracle, err := history.Run(h, b.windowOrigin)
	if err != nil {
		t.Fatalf("%s: oracle run: %v", name, err)
	}
	for p := 0; p <= len(b.entries); p++ {
		if got, want := b.stateAt(p), oracle.StateAt(p); !got.Equal(want) {
			t.Errorf("%s: stateAt(%d) = %s, serial run gives %s", name, p, got, want)
		}
	}
	if !b.master.Equal(oracle.Final()) {
		t.Errorf("%s: master %s != serial run of the installed history %s", name, b.master, oracle.Final())
	}
}

// interiorInsertWorkload checks a Strategy 1 mobile out, commits disjoint
// base transactions behind its back, and merges it: the forwarded write-back
// — an additive update of y and a constant update of z — installs at the
// interior checkout position. A second mobile then checks out past the
// insert and merges against the shifted positions.
func interiorInsertWorkload(t *testing.T, exec func(*tx.Transaction) error, mobile func(id string) *MobileNode) {
	t.Helper()
	mustExec := func(bt *tx.Transaction) {
		t.Helper()
		if err := exec(bt); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(workload.Deposit("Tb1", tx.Base, "x", 10))
	mustExec(workload.Deposit("Tb2", tx.Base, "w", 1))
	m := mobile("m1") // checkout after Tb1, Tb2
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(workload.SetPrice("Tm2", tx.Tentative, "z", 7)); err != nil {
		t.Fatal(err)
	}
	mustExec(workload.Deposit("Tb3", tx.Base, "x", 3))
	mustExec(workload.Deposit("Tb4", tx.Base, "w", 2))
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Merged || out.Saved != 2 {
		t.Fatalf("merge outcome = %+v, want 2 saved", out)
	}
	if _, ok := out.Report.ForwardDeltas["y"]; !ok {
		t.Errorf("forwarded deltas %v lack the additive update of y", out.Report.ForwardDeltas)
	}
	if _, ok := out.Report.ForwardUpdates["z"]; !ok {
		t.Errorf("forwarded updates %v lack the constant update of z", out.Report.ForwardUpdates)
	}
	m2 := mobile("m2")
	if err := m2.Run(workload.Deposit("Tm3", tx.Tentative, "y", 1)); err != nil {
		t.Fatal(err)
	}
	if out, err := m2.ConnectMerge(); err != nil || !out.Merged || out.Saved != 1 {
		t.Fatalf("merge after the insert = %+v, %v; want 1 saved", out, err)
	}
}

// TestInteriorInsertStateAt runs the interior-insert workload on a plain
// cluster, in memory and on disk.
func TestInteriorInsertStateAt(t *testing.T) {
	cfg := Config{Origin: Strategy1}
	disk, _, err := OpenBase(t.TempDir(), origin(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.CloseStore()
	for name, b := range map[string]*BaseCluster{"memory": NewBaseCluster(origin(), cfg), "disk": disk} {
		interiorInsertWorkload(t, b.ExecBase, func(id string) *MobileNode { return NewMobileNode(id, b) })
		b.mu.Lock()
		interior := len(b.entries) == 6 && b.entries[2].t.Type == "forwarded-updates"
		b.mu.Unlock()
		if !interior {
			t.Errorf("%s: forwarded transaction not installed at the checkout position", name)
		}
		checkStateAtOracle(t, name, b)
	}
}

// TestShardedInteriorInsertStateAt: the same through a two-shard tier whose
// router splits the forwarded items, so the write-back installs as
// per-shard slices of one global transaction, each at its shard's interior
// checkout position.
func TestShardedInteriorInsertStateAt(t *testing.T) {
	cfg := Config{Origin: Strategy1, ShardFn: func(it model.Item) int {
		if it == "x" || it == "y" {
			return 0
		}
		return 1
	}}
	disk, _, err := OpenShardedBase(t.TempDir(), origin(), 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.CloseStore()
	for name, s := range map[string]*ShardedBase{"memory": NewShardedBase(origin(), 2, cfg), "disk": disk} {
		interiorInsertWorkload(t, s.ExecBase, func(id string) *MobileNode { return NewShardedMobileNode(id, s) })
		for k := 0; k < 2; k++ {
			b := s.Shard(k)
			b.mu.Lock()
			interior := len(b.entries) >= 3 && b.entries[1].global != nil
			b.mu.Unlock()
			if !interior {
				t.Errorf("%s: shard %d: forwarded slice not installed at the checkout position", name, k)
			}
			checkStateAtOracle(t, fmt.Sprintf("%s shard %d", name, k), b)
		}
	}
}

// --- Tentpole: durable OpenBase / Checkpoint / recovery.

// TestOpenBaseFreshCommitRecover: a durable cluster survives a crash; the
// reopened cluster carries the acked master, window and history.
func TestOpenBaseFreshCommitRecover(t *testing.T) {
	dir := t.TempDir()
	b, rec, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 0 {
		t.Errorf("fresh open replayed %d records", rec.Records)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "y", 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	if err := b.ExecBase(workload.Deposit("Tb2", tx.Base, "z", 3)); err != nil {
		t.Fatal(err)
	}
	want := b.Master()
	wantWin, wantLen := b.WindowID(), b.HistoryLen()
	// Crash: no Close, no final flush beyond the per-commit syncs.

	b2, rec2, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.CloseStore()
	if !b2.Master().Equal(want) {
		t.Errorf("recovered master %s != %s", b2.Master(), want)
	}
	if b2.WindowID() != wantWin || b2.HistoryLen() != wantLen {
		t.Errorf("recovered window/history = %d/%d, want %d/%d",
			b2.WindowID(), b2.HistoryLen(), wantWin, wantLen)
	}
	if rec2.Committed == 0 {
		t.Error("recovery replayed no commits")
	}
	// The recovered cluster keeps working.
	if err := b2.ExecBase(workload.Deposit("Tb3", tx.Base, "w", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointTruncatesLogAndRecovers: checkpoint + truncation must keep
// the log bounded and recovery from checkpoint+tail must land on the same
// master as before the crash.
func TestCheckpointTruncatesLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := b.ExecBase(workload.Deposit(fmt.Sprintf("T%d", i), tx.Base, "x", 1)); err != nil {
			t.Fatal(err)
		}
	}
	before := b.LogSize()
	b.AdvanceWindow() // empties the current window
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := b.LogSize()
	if after >= before {
		t.Errorf("log size after checkpoint %d >= before %d (no truncation)", after, before)
	}
	// Post-checkpoint commits land in the tail.
	if err := b.ExecBase(workload.Deposit("Tpost", tx.Base, "y", 2)); err != nil {
		t.Fatal(err)
	}
	want := b.Master()

	b2, rec, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.CloseStore()
	if !b2.Master().Equal(want) {
		t.Errorf("recovered master %s != %s", b2.Master(), want)
	}
	// Recovery replayed checkpoint + tail, not the 50-commit history.
	if rec.Committed > 2 {
		t.Errorf("recovery replayed %d commits, want <= 2 (checkpoint should have absorbed the history)", rec.Committed)
	}
}

// TestCheckpointWithoutDiskStore: Checkpoint is a typed error on clusters
// without a durable log.
func TestCheckpointWithoutDiskStore(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	if err := b.Checkpoint(); !errors.Is(err, ErrNoDurableStore) {
		t.Errorf("Checkpoint on an in-memory cluster = %v, want ErrNoDurableStore", err)
	}
}

// TestOpenShardedBaseRecover: the durable sharded tier recovers per shard,
// including cross-shard slices.
func TestOpenShardedBaseRecover(t *testing.T) {
	dir := t.TempDir()
	s, recs, err := OpenShardedBase(dir, origin(), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recoveries = %d, want 2", len(recs))
	}
	if err := s.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecBase(workload.Transfer("Tb2", tx.Base, "x", "y", 4)); err != nil {
		t.Fatal(err)
	}
	want := s.Master()

	s2, _, err := OpenShardedBase(dir, nil, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseStore()
	if !s2.Master().Equal(want) {
		t.Errorf("recovered sharded master %s != %s", s2.Master(), want)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// --- Rotation-gate regressions at the cluster level.

// TestConcurrentCommitsAndCheckpoints: commits racing checkpoint rotations
// (including two concurrent Checkpoint callers, the serve ticker/drain
// shape) must leave a log from which every acknowledged commit recovers.
// Pre-fix, a commit syncing in the BeginRotate→CompleteRotate window could
// fsync restarted-seq records into the outgoing tail (lost on rotation),
// and overlapping Checkpoints could interleave their boundary splits.
func TestConcurrentCommitsAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	const commits = 60
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			if err := b.ExecBase(workload.Deposit(fmt.Sprintf("T%d", i), tx.Base, "x", 1)); err != nil {
				errs <- fmt.Errorf("commit %d: %w", i, err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := b.Checkpoint(); err != nil {
					errs <- fmt.Errorf("checkpoint: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := b.Master()
	// Crash without Close: recovery must see every acknowledged commit.
	b2, rec, err := OpenBase(dir, nil, Config{})
	if err != nil {
		t.Fatalf("recovery after concurrent checkpoints: %v", err)
	}
	defer b2.CloseStore()
	if !b2.Master().Equal(want) {
		t.Errorf("recovered master %s != %s (%s)", b2.Master(), want, rec)
	}
}

// TestCheckpointFailureStopsAcks: a failed rotation wedges the journal —
// the boundary already restarted the record numbering, so continuing to
// append would corrupt the old tail. No later commit may be acknowledged.
// Pre-fix, the cluster kept serving and the next sync planted an interior
// sequence break that made the log unrecoverable despite acked commits.
func TestCheckpointFailureStopsAcks(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("T1", tx.Base, "x", 1)); err != nil {
		t.Fatal(err)
	}
	// Sabotage the data directory so the rotation cannot stage its temp
	// checkpoint file.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := b.Checkpoint(); err == nil {
		t.Fatal("Checkpoint into a removed directory must fail")
	}
	if err := b.ExecBase(workload.Deposit("T2", tx.Base, "x", 1)); err == nil {
		t.Fatal("commit after a failed rotation must not be acknowledged")
	}
	if err := b.Checkpoint(); err == nil {
		t.Fatal("a wedged log must keep failing checkpoints, not resurrect itself")
	}
	b.CloseStore() // wedge error expected; this releases the tail fd
}

// TestMergeInstallAtomicInLog: a reconnect's install — here a forwarded
// update and a re-executed back-out — is one commit record of the durable
// journal. Recovering the journal cut at any byte of what the merge
// appended lands on the master before the reconnect or after it, never on
// a partial install.
func TestMergeInstallAtomicInLog(t *testing.T) {
	dir := t.TempDir()
	b, _, err := OpenBase(dir, origin(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMobileNode("m1", b)
	for _, txn := range []*tx.Transaction{
		workload.Deposit("Tm1", tx.Tentative, "x", 5),        // saved: forwarded
		workload.AccrueInterest("Tm2", tx.Tentative, "y", 4), // backed out: re-executed
	} {
		if err := m.Run(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.ExecBase(workload.AccrueInterest("Tb1", tx.Base, "y", 10)); err != nil {
		t.Fatal(err)
	}
	gen, ckpt, before, err := store.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantBefore, lenBefore := b.Master(), b.HistoryLen()
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out.Reprocessed == 0 || out.Saved == 0 || b.HistoryLen()-lenBefore < 2 {
		t.Fatalf("merge installed %d entries (saved %d, re-executed %d), want a forwarded update and a re-execution",
			b.HistoryLen()-lenBefore, out.Saved, out.Reprocessed)
	}
	wantAfter := b.Master()
	if err := b.CloseStore(); err != nil {
		t.Fatal(err)
	}
	_, _, after, err := store.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) || len(after) == len(before) {
		t.Fatalf("merge appended nothing to the tail (%d -> %d bytes)", len(before), len(after))
	}
	for cut := len(before); cut <= len(after); cut++ {
		d := t.TempDir()
		if err := store.WriteSegments(d, gen, ckpt, after[:cut]); err != nil {
			t.Fatal(err)
		}
		rb, _, err := OpenBase(d, nil, Config{})
		if err != nil {
			t.Fatalf("cut at byte %d of the tail: %v", cut, err)
		}
		got := rb.Master()
		rb.CloseStore()
		want := wantBefore
		if cut == len(after) {
			want = wantAfter
		}
		if !got.Equal(want) {
			t.Fatalf("cut at byte %d of %d..%d: recovered %s, want %s (before %s, after %s)",
				cut, len(before), len(after), got, want, wantBefore, wantAfter)
		}
	}
}
