package replica

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tiermerge/internal/expr"
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
// {b, b3} backs T out and ends where one cluster does — live, and after a
// reopen, where recovery restores X and Y as unlinked slices and the
// mobile, holding a token of the recovered window, must fall back to
// reprocessing.
func TestShardedMergeSeesCrossShardCycle(t *testing.T) {
	origin, tm, base, want := crossShardCycle("a", "b", "b3", "c")
	cfg := Config{ShardFn: func(it model.Item) int {
		if it == "a" || it == "c" {
			return 0
		}
		return 1
	}}
	for _, name := range []string{"live", "reopened"} {
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
			if name == "reopened" {
				if err := s.CloseStore(); err != nil {
					t.Fatal(err)
				}
				if s, _, err = OpenShardedBase(dir, nil, 2, cfg); err != nil {
					t.Fatal(err)
				}
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
