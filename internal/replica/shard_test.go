package replica

import (
	"fmt"
	"sync"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the sharded base tier: routing determinism, N=1 parity with
// the plain cluster, serial-order equivalence of concurrent sharded
// reconnects, counter parity with the plain cluster, cross-shard merges
// against the single-shard baseline, the window barrier, and an
// all-shards-contended deadlock smoke. The suite runs
// under -race in scripts/check.sh.

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

// shardedDisjointFleet builds an n-mobile fleet of private deposits on a
// tier of the given shard count.
func shardedDisjointFleet(t *testing.T, shards, n int, cfg Config) (*ShardedBase, []*MobileNode) {
	t.Helper()
	s := NewShardedBase(shardFleetOrigin(n), shards, cfg)
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
		for k := 0; k < 3; k++ {
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d.%d", i, k), tx.Tentative, shardAcct(i), 5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, ms
}

// connectAllSharded reconnects every mobile concurrently.
func connectAllSharded(t *testing.T, ms []*MobileNode) []*ConnectOutcome {
	t.Helper()
	outs := make([]*ConnectOutcome, len(ms))
	errs := make([]error, len(ms))
	var wg sync.WaitGroup
	wg.Add(len(ms))
	for i := range ms {
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = ms[i].ConnectMerge()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("mobile %d: %v", i, err)
		}
	}
	return outs
}

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

// TestShardedOneShardMatchesPlainCluster: N=1 must be the plain cluster
// — same outcomes, same counters, same master, byte for byte.
func TestShardedOneShardMatchesPlainCluster(t *testing.T) {
	const n = 4
	run := func(sharded bool) (model.State, cost.Counts) {
		var ms []*MobileNode
		var master func() model.State
		var counts func() cost.Counts
		if sharded {
			s, fleet := shardedDisjointFleet(t, 1, n, Config{})
			ms, master, counts = fleet, s.Master, s.Counters
		} else {
			b := NewBaseCluster(shardFleetOrigin(n), Config{})
			for i := 0; i < n; i++ {
				m := NewMobileNode(fmt.Sprintf("m%d", i), b)
				for k := 0; k < 3; k++ {
					if err := m.Run(workload.Deposit(fmt.Sprintf("Td%d.%d", i, k), tx.Tentative, shardAcct(i), 5)); err != nil {
						t.Fatal(err)
					}
				}
				ms = append(ms, m)
			}
			master = b.Master
			counts = func() cost.Counts { return b.Counters().Snapshot() }
		}
		for _, m := range ms {
			if out, err := m.ConnectMerge(); err != nil || !out.Merged {
				t.Fatalf("connect: out=%+v err=%v", out, err)
			}
		}
		return master(), counts()
	}
	plainMaster, plainCounts := run(false)
	shardMaster, shardCounts := run(true)
	if !plainMaster.Equal(shardMaster) {
		t.Errorf("masters diverged:\nplain   %s\nsharded %s", plainMaster, shardMaster)
	}
	if plainCounts != shardCounts {
		t.Errorf("counters diverged:\nplain   %+v\nsharded %+v", plainCounts, shardCounts)
	}
}

// TestShardedConcurrentMatchesSomeSerialOrder: mobiles conflicting on the
// shared priced item reconnect concurrently against a 4-shard tier. Each
// merge spans p's shard and the mobile's account shard, so a cross-shard
// critical section carries the conflict — and the result must still be
// final-state-equivalent to some serial admission order, with one critical
// section per reconnect.
func TestShardedConcurrentMatchesSomeSerialOrder(t *testing.T) {
	const n, shards = 3, 4
	build := func() (*ShardedBase, []*MobileNode) {
		s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
		ms := make([]*MobileNode, n)
		for i := range ms {
			ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
			if err := ms[i].Run(workload.SetPrice(fmt.Sprintf("Tp%d", i), tx.Tentative, "p", model.Value(100+11*i))); err != nil {
				t.Fatal(err)
			}
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d", i), tx.Tentative, shardAcct(i), 5)); err != nil {
				t.Fatal(err)
			}
		}
		return s, ms
	}
	var serialStates []model.State
	for _, perm := range permutations(n) {
		s, ms := build()
		for _, i := range perm {
			if _, err := ms[i].ConnectMerge(); err != nil {
				t.Fatal(err)
			}
		}
		serialStates = append(serialStates, s.Master())
	}
	for trial := 0; trial < 8; trial++ {
		s, ms := build()
		connectAllSharded(t, ms)
		c := s.Counters()
		if c.CrossShardMerges == 0 {
			t.Fatalf("trial %d: conflict fleet drove no cross-shard merges", trial)
		}
		checkOneSectionPerMerge(t, c)
		got := s.Master()
		found := false
		for _, want := range serialStates {
			if got.Equal(want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: concurrent sharded master %s matches no serial order %v",
				trial, got, serialStates)
		}
	}
}

// TestShardedCountersMatchPlainCluster: on the disjoint fleet a 4-shard
// tier must charge exactly what a plain NewBaseCluster charges — the
// shard-local merges run the same one-member routine the unsharded base
// does. BaseGraphOps/BaseBackoutOps are excluded: they scale with the
// observed base prefix (shorter per shard). The one protocol difference is
// the checkout download, which a sharded tier ships as one message per
// shard.
func TestShardedCountersMatchPlainCluster(t *testing.T) {
	const n, shards = 8, 4
	b := NewBaseCluster(shardFleetOrigin(n), Config{})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		for k := 0; k < 3; k++ {
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d.%d", i, k), tx.Tentative, shardAcct(i), 5)); err != nil {
				t.Fatal(err)
			}
		}
	}
	connectAllSharded(t, ms)
	plain := b.Counters().Snapshot()

	s, ms := shardedDisjointFleet(t, shards, n, Config{})
	connectAllSharded(t, ms)
	sharded := s.Counters()

	// Two checkouts per mobile (initial, post-merge), shards-1 extra
	// messages each.
	extra := int64(2 * n * (shards - 1))
	sharded.Messages -= extra
	sharded.Bytes -= extra * s.Weights().MsgOverheadBytes
	plain.BaseGraphOps, sharded.BaseGraphOps = 0, 0
	plain.BaseBackoutOps, sharded.BaseBackoutOps = 0, 0
	if plain != sharded {
		t.Errorf("counter totals diverged:\nplain   %+v\nsharded %+v", plain, sharded)
	}
	if !b.Master().Equal(s.Master()) {
		t.Errorf("masters diverged:\nplain   %s\nsharded %s", b.Master(), s.Master())
	}
}

// TestCrossShardMergeMatchesSingleShardBaseline: the same
// transfer-carrying fleet runs against 4 shards (cross-shard critical
// sections over several mutexes) and 1 shard (every merge under one). The workload is
// additive, so the final masters must be identical whatever the
// interleaving — partitioning must never change the merged outcome.
func TestCrossShardMergeMatchesSingleShardBaseline(t *testing.T) {
	const n = 6
	build := func(shards int) (*ShardedBase, []*MobileNode) {
		s := NewShardedBase(shardFleetOrigin(n), shards, Config{})
		ms := make([]*MobileNode, n)
		for i := range ms {
			ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Td%d", i), tx.Tentative, shardAcct(i), 5)); err != nil {
				t.Fatal(err)
			}
			if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d", i), tx.Tentative, shardAcct(i), shardAcct((i+1)%n), 3)); err != nil {
				t.Fatal(err)
			}
		}
		return s, ms
	}
	baseline, baseMs := build(1)
	for _, m := range baseMs {
		if out, err := m.ConnectMerge(); err != nil || !out.Merged {
			t.Fatalf("baseline connect: out=%+v err=%v", out, err)
		}
	}
	for trial := 0; trial < 4; trial++ {
		s, ms := build(4)
		outs := connectAllSharded(t, ms)
		for i, out := range outs {
			if !out.Merged {
				t.Errorf("trial %d mobile %d not merged: %+v", trial, i, out)
			}
		}
		if c := s.Counters(); c.CrossShardMerges == 0 {
			t.Errorf("trial %d: transfer fleet drove no cross-shard merges", trial)
		}
		if got, want := s.Master(), baseline.Master(); !got.Equal(want) {
			t.Errorf("trial %d: 4-shard master %s != 1-shard baseline %s", trial, got, want)
		}
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
	connectAllSharded(t, ms)
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
	const n, shards, checkouts = 4, 4, 200
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
