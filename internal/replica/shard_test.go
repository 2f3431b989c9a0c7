package replica

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tiermerge/internal/expr"
	"tiermerge/internal/fault"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the sharded base tier that no single-cluster reference covers:
// routing determinism, the window barrier, an all-shards-contended deadlock
// smoke, and the cross-shard cycle a merge over its footprint's shards
// alone cannot see. Partition invisibility against the one-cluster tier is
// the correctness oracle's (oracle_test.go). The suite runs under -race in
// scripts/check.sh.

// shardFleetOrigin funds one account per mobile plus a shared priced
// item; with the default FNV router the accounts scatter across shards.
func shardFleetOrigin(n int) model.State {
	st := model.StateOf(map[model.Item]model.Value{"p": 50})
	for i := 0; i < n; i++ {
		st.Set(model.Item(fmt.Sprintf("m%d.acct", i)), 100)
	}
	return st
}

func shardAcct(i int) model.Item { return model.Item(fmt.Sprintf("m%d.acct", i)) }

// TestShardRouterPartition: the router is deterministic, covers every
// shard index, and honors a custom ShardFn (including one returning
// negative values, which must still land in range).
func TestShardRouterPartition(t *testing.T) {
	r := newShardRouter(4, nil)
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		it := model.Item(fmt.Sprintf("item%d", i))
		k := r.Shard(it)
		if k != r.Shard(it) {
			t.Fatalf("router not deterministic for %s", it)
		}
		if k < 0 || k >= 4 {
			t.Fatalf("shard %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 4 {
		t.Errorf("default router used %d of 4 shards over 256 items", len(seen))
	}
	neg := newShardRouter(3, func(it model.Item) int { return -1 - len(it) })
	for _, it := range []model.Item{"a", "bb", "ccc"} {
		if k := neg.Shard(it); k < 0 || k >= 3 {
			t.Errorf("negative ShardFn leaked out-of-range shard %d for %s", k, it)
		}
	}
}

// crossShardCycle is a cycle through Hm that leaves Hm's shard through one
// cross-shard base transaction and returns through another, on a tier that
// puts a apart from b and b3. The mobile runs T: b3 := b3 + b; the base
// then commits X: a := 2; b := 20 and Y: c := a + b3. T -> X on b, X -> Y
// on a (a's shard only), Y -> T on b3: T must be backed out and re-executed
// after Y, which a serial run ends on want. Slices on b's shard alone show
// no cycle; saving T ends on b3 = 110, c = 102, which no serial order
// produces.
func crossShardCycle(a, b, b3, c model.Item) (origin model.State, tm *tx.Transaction, base []*tx.Transaction, want model.State) {
	state := func(va, vb, vb3, vc model.Value) model.State {
		return model.StateOf(map[model.Item]model.Value{a: va, b: vb, b3: vb3, c: vc})
	}
	tm = tx.MustNew("T", tx.Tentative, tx.Update(b3, expr.Add(expr.Var(b3), expr.Var(b))))
	base = []*tx.Transaction{
		tx.MustNew("X", tx.Base, tx.Update(a, expr.Const(2)), tx.Update(b, expr.Const(20))),
		tx.MustNew("Y", tx.Base, tx.Update(c, expr.Add(expr.Var(a), expr.Var(b3)))),
	}
	return state(1, 10, 100, 0), tm, base, state(2, 20, 120, 102)
}

// TestShardedMergeSeesCrossShardCycle: a 2-shard tier splitting {a, c} |
// {b, b3} backs T out and ends where one cluster does — live; after a
// reopen, where recovery restores X and Y as unlinked slices and the
// mobile, holding a token of the recovered window, must fall back to
// reprocessing; and mid-barrier, where a window advance has zeroed the
// cross-shard count but closed no shard's window yet, so X and Y are still
// there for the merge to see.
func TestShardedMergeSeesCrossShardCycle(t *testing.T) {
	origin, tm, base, want := crossShardCycle("a", "b", "b3", "c")
	cfg := Config{ShardFn: func(it model.Item) int {
		if it == "a" || it == "c" {
			return 0
		}
		return 1
	}}
	for _, name := range []string{"live", "reopened", "mid-barrier"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := OpenShardedBase(dir, origin, 2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			m := NewShardedMobileNode("m", s)
			if err := m.Run(tm); err != nil {
				t.Fatal(err)
			}
			mustExecBase(t, s, base...)
			switch name {
			case "reopened":
				if err := s.CloseStore(); err != nil {
					t.Fatal(err)
				}
				if s, _, err = OpenShardedBase(dir, nil, 2, cfg); err != nil {
					t.Fatal(err)
				}
			case "mid-barrier":
				// AdvanceWindow's first two steps, before it reaches a shard.
				s.windowVer.Add(1)
				s.crossEntries.Store(0)
			}
			defer s.CloseStore()
			out, err := s.Merge(m.ck, m.Augmented())
			if err != nil {
				t.Fatal(err)
			}
			if out.Saved != 0 || out.Reprocessed != 1 {
				t.Errorf("outcome %+v, want T re-executed", out)
			}
			if got := s.Master(); !got.Equal(want) {
				t.Errorf("master %s, want %s", got, want)
			}
		})
	}
}

// TestCrossShardAllContendedSmoke: every mobile's merge spans every
// shard (a wide transfer chain touching one account per shard region),
// all reconnecting at once while base traffic lands. The ascending-order
// shard lock acquisition must make this complete — a deadlock here hangs
// the test run.
func TestCrossShardAllContendedSmoke(t *testing.T) {
	const n, shards = 8, 4
	s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
		// Two transfers chained over three accounts: with n=8 accounts
		// FNV-scattered over 4 shards, the union footprint crosses shards
		// in both directions of the index order.
		a, b, c := shardAcct(i), shardAcct((i+3)%n), shardAcct((i+5)%n)
		if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d a", i), tx.Tentative, a, b, 1)); err != nil {
			t.Fatal(err)
		}
		if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d b", i), tx.Tentative, b, c, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Bounded base traffic: enough to contend for the shard mutexes with
	// the merges, but finite — an unthrottled flood would only slow the
	// smoke down on a small machine, which is not what it is for.
	var basewg sync.WaitGroup
	basewg.Add(1)
	go func() {
		defer basewg.Done()
		for k := 0; k < 64; k++ {
			if err := s.ExecBase(workload.Deposit(fmt.Sprintf("B%d", k), tx.Base, shardAcct(k%n), 1)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	connectAll(t, ms)
	basewg.Wait()
	if c := s.Counters(); c.CrossShardMerges == 0 {
		t.Errorf("contended fleet drove no cross-shard merges: %+v", c)
	}
}

// TestShardedCheckoutIsACut: a Strategy 1 checkout sweeps the shards one at
// a time, yet its origin is a state the base passed through. With a on
// shard 0 and b on shard 1, base transactions Xk: a := k; b := k commit
// while checkouts sweep; an origin with a != b straddles one Xk, and a
// merge against it could end on a state no serial order produces.
func TestShardedCheckoutIsACut(t *testing.T) {
	cfg := Config{Origin: Strategy1, ShardFn: func(it model.Item) int {
		if it == "a" {
			return 0
		}
		return 1
	}}
	s := NewShardedBase(model.StateOf(map[model.Item]model.Value{"a": 0, "b": 0}), 2, cfg)
	running, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(running)
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			v := expr.Const(model.Value(k))
			if err := s.ExecBase(tx.MustNew(fmt.Sprintf("X%d", k), tx.Base, tx.Update("a", v), tx.Update("b", v))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	<-running // sweep while commits land
	// A sweep straddles a commit a few times per thousand without the
	// check; this many make missing every straddle unlikely.
	const checkouts = 20000
	torn := 0
	for i := 0; i < checkouts; i++ {
		if ck := s.CheckoutReplica("m"); ck.Origin.Get("a") != ck.Origin.Get("b") {
			torn++
		}
	}
	close(stop)
	wg.Wait()
	if torn > 0 {
		t.Errorf("%d of %d checkout origins have a != b: they straddle a cross-shard commit", torn, checkouts)
	}
}

// TestWindowBarrierNoMixedPrefix: a checkout racing AdvanceWindow must
// never observe a mixed-window prefix — every per-shard token inside one
// returned checkout carries the same WindowID, and successive WindowID
// reads are monotonic.
func TestWindowBarrierNoMixedPrefix(t *testing.T) {
	const n, shards, checkouts = 4, 4, 1000
	s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	go func() {
		defer adv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.AdvanceWindow()
				// Yield, or checkouts complete only when the scheduler
				// preempts this loop, and the test takes seconds.
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := 0
			for k := 0; k < checkouts; k++ {
				ck := s.CheckoutReplica(fmt.Sprintf("m%d", g))
				if len(ck.Shards) != shards {
					t.Errorf("checkout carries %d shard tokens, want %d", len(ck.Shards), shards)
					return
				}
				for i, part := range ck.Shards {
					if part.WindowID != ck.WindowID {
						t.Errorf("mixed-window checkout: shard %d token window %d, checkout window %d",
							i, part.WindowID, ck.WindowID)
						return
					}
				}
				if ck.WindowID < last {
					t.Errorf("window went backwards: %d after %d", ck.WindowID, last)
					return
				}
				last = ck.WindowID
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	adv.Wait()
}

// TestBaseCommitAcksAfterCrossShardReadDurable: a shard-local base commit
// that may have read a cross-shard entry acknowledges only once that entry
// is durable on every shard. With a on shard 0 and b on shard 1, T1: a :=
// 1; b := 1 parks in shard 0's fsync; T2: b := b + 1 reads T1's write on
// shard 1. When T2 returns, shard 0's persisted journal must hold T1's
// slice: T2 forces every journal while the window holds a cross-shard
// entry, not only its own shard's.
func TestBaseCommitAcksAfterCrossShardReadDurable(t *testing.T) {
	cfg := Config{ShardFn: func(it model.Item) int {
		if it == "a" {
			return 0
		}
		return 1
	}}
	s := NewShardedBase(model.StateOf(map[model.Item]model.Value{"a": 0, "b": 0}), 2, cfg)
	w0, w1 := &gatedSync{SyncWriter: fault.NewSyncWriter()}, fault.NewSyncWriter()
	if err := s.Shard(0).AttachJournal(w0); err != nil {
		t.Fatal(err)
	}
	if err := s.Shard(1).AttachJournal(w1); err != nil {
		t.Fatal(err)
	}
	parked, release := w0.hold()
	defer release()
	done1 := make(chan error, 1)
	go func() {
		done1 <- s.ExecBase(tx.MustNew("T1", tx.Base, tx.Update("a", expr.Const(1)), tx.Update("b", expr.Const(1))))
	}()
	<-parked
	t2 := tx.MustNew("T2", tx.Base, tx.Update("b", expr.Add(expr.Var("b"), expr.Const(1))))
	if err := execWithin(s, t2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverBaseCluster(bytes.NewReader(w0.Persisted()), Config{})
	if err != nil {
		t.Fatalf("recover shard 0 from its persisted image: %v", err)
	}
	if got := rec.Master().Get("a"); got != 1 {
		t.Errorf("T2 acked with T1's slice on shard 0 not durable: persisted a = %d, want 1", got)
	}
	release()
	if err := <-done1; err != nil {
		t.Fatal(err)
	}
	if got := s.Master(); !got.Equal(model.StateOf(map[model.Item]model.Value{"a": 1, "b": 2})) {
		t.Errorf("master %s, want a=1 b=2", got)
	}
}
