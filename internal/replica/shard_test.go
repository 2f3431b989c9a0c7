package replica

import (
	"fmt"
	"sync"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the sharded base tier: routing determinism, N=1 parity with
// the plain cluster, serial-order equivalence of concurrent sharded
// reconnects, counter parity with the plain cluster, cross-shard
// two-phase merges against the single-shard baseline, the window
// barrier, and an all-shards-contended deadlock smoke. The suite runs
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
// merge spans p's shard and the mobile's account shard, so the two-phase
// cross-shard path carries the conflict — and the result must still be
// final-state-equivalent to some serial admission order.
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
		if c := s.Counters(); c.CrossShardMerges == 0 {
			t.Fatalf("trial %d: conflict fleet drove no cross-shard merges", trial)
		}
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
// does. The exclusions follow the E13 convention:
// BaseGraphOps/BaseBackoutOps scale with the observed base prefix (shorter
// per shard) and MergeRetries/AdmitBatches describe the schedule's shape,
// not work the protocol prescribes. The one protocol difference is the
// checkout download, which a sharded tier ships as one message per shard.
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
	plain.MergeRetries, sharded.MergeRetries = 0, 0
	plain.AdmitBatches, sharded.AdmitBatches = 0, 0
	if plain != sharded {
		t.Errorf("counter totals diverged:\nplain   %+v\nsharded %+v", plain, sharded)
	}
	if !b.Master().Equal(s.Master()) {
		t.Errorf("masters diverged:\nplain   %s\nsharded %s", b.Master(), s.Master())
	}
}

// TestCrossShardMergeMatchesSingleShardBaseline: the same
// transfer-carrying fleet runs against 4 shards (two-phase cross-shard
// admission) and 1 shard (every merge under one mutex). The workload is
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

// TestCrossShardRetryAfterPrepare: the two-phase admit must detect a
// shard whose history moved between the combined prepare and the
// validate step, retry, and still land the merge with nothing lost.
func TestCrossShardRetryAfterPrepare(t *testing.T) {
	const n = 8
	s := NewShardedBase(shardFleetOrigin(n), 4, Config{})
	// Pick two accounts the router provably places on different shards.
	from, to := 0, -1
	for j := 1; j < n; j++ {
		if s.ShardOf(shardAcct(j)) != s.ShardOf(shardAcct(from)) {
			to = j
			break
		}
	}
	if to < 0 {
		t.Fatal("router put every account on one shard")
	}
	m := NewShardedMobileNode("m0", s)
	if err := m.Run(workload.Transfer("Tx0", tx.Tentative, shardAcct(from), shardAcct(to), 3)); err != nil {
		t.Fatal(err)
	}
	injected := false
	s.hookAfterPrepare = func(attempt int) {
		if !injected {
			injected = true
			if err := s.ExecBase(workload.SetPrice("Bx", tx.Base, shardAcct(from), 107)); err != nil {
				t.Error(err)
			}
		}
	}
	out, err := m.ConnectMerge()
	if err != nil || !out.Merged {
		t.Fatalf("connect: out=%+v err=%v", out, err)
	}
	if !injected {
		t.Fatal("hookAfterPrepare never fired")
	}
	c := s.Counters()
	if c.MergeRetries == 0 {
		t.Errorf("invalidated prepare charged no retry: %+v", c)
	}
	master := s.Master()
	// 107 (injected base assignment) - 3 (re-executed transfer out) and 100 + 3.
	if got := master.Get(shardAcct(from)); got != 104 {
		t.Errorf("acct %d = %d, want 104", from, got)
	}
	if got := master.Get(shardAcct(to)); got != 103 {
		t.Errorf("acct %d = %d, want 103", to, got)
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
	// Bounded base traffic: enough to race the merges' prepare windows,
	// but finite — an unthrottled flood would legitimately starve the
	// optimistic prepares on a small machine, which is not what this
	// smoke is for.
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

// TestCrossShardRetryUploadParity is the cost-accounting audit for the
// two-phase cross-shard path: a reconnect whose combined prepare is
// invalidated and retried must bill the mobile's upload (set entries,
// graph edges, the mobile-side G(Hm) build) exactly once — identical to
// the single-attempt reconnect — while still recording the retry and the
// second attempt's base-side graph work. The per-attempt delta
// accumulators must not re-add the attempt-independent charges.
func TestCrossShardRetryUploadParity(t *testing.T) {
	const n = 8
	run := func(forceRetry bool) cost.Counts {
		s := NewShardedBase(shardFleetOrigin(n), 4, Config{})
		from, to := 0, -1
		for j := 1; j < n; j++ {
			if s.ShardOf(shardAcct(j)) != s.ShardOf(shardAcct(from)) {
				to = j
				break
			}
		}
		if to < 0 {
			t.Fatal("router put every account on one shard")
		}
		m := NewShardedMobileNode("m0", s)
		if err := m.Run(workload.Transfer("Tx0", tx.Tentative, shardAcct(from), shardAcct(to), 3)); err != nil {
			t.Fatal(err)
		}
		if forceRetry {
			injected := false
			s.hookAfterPrepare = func(attempt int) {
				if !injected {
					injected = true
					if err := s.ExecBase(workload.SetPrice("Bx", tx.Base, shardAcct(from), 107)); err != nil {
						t.Error(err)
					}
				}
			}
		}
		out, err := m.ConnectMerge()
		if err != nil || !out.Merged {
			t.Fatalf("connect (retry=%v): out=%+v err=%v", forceRetry, out, err)
		}
		return s.Counters()
	}
	single := run(false)
	retried := run(true)

	if single.MergeRetries != 0 || retried.MergeRetries == 0 {
		t.Fatalf("MergeRetries = %d/%d, want 0 and >0", single.MergeRetries, retried.MergeRetries)
	}
	if retried.SetEntriesSent != single.SetEntriesSent {
		t.Errorf("SetEntriesSent = %d after a cross-shard retry, want %d (upload re-billed?)",
			retried.SetEntriesSent, single.SetEntriesSent)
	}
	if retried.GraphEdgesSent != single.GraphEdgesSent {
		t.Errorf("GraphEdgesSent = %d after a cross-shard retry, want %d (upload re-billed?)",
			retried.GraphEdgesSent, single.GraphEdgesSent)
	}
	if retried.MobileGraphOps != single.MobileGraphOps {
		t.Errorf("MobileGraphOps = %d after a cross-shard retry, want %d (G(Hm) built once)",
			retried.MobileGraphOps, single.MobileGraphOps)
	}
	if retried.CrossShardMerges != 1 || single.CrossShardMerges != 1 {
		t.Errorf("CrossShardMerges = %d/%d, want 1/1", retried.CrossShardMerges, single.CrossShardMerges)
	}
	// The invalidated attempt's base-side graph work really happened: the
	// retried reconnect must bill MORE of it, not an identical total.
	if retried.BaseGraphOps <= single.BaseGraphOps {
		t.Errorf("BaseGraphOps = %d after a retried rebuild, want > %d (failed attempt's work dropped?)",
			retried.BaseGraphOps, single.BaseGraphOps)
	}
}

// TestSetSizeRetryThenSerialParity drives one scenario — both optimistic
// rounds invalidated by a base assignment committed between prepare and
// admit, then the serial round — through a cluster set of size 1 (plain
// cluster) and size 2 (cross-shard). The one routine must produce the same
// master, the same outcome and the same phase sequence for both; only the
// event Detail tag and extend-vs-rebuild (a one-member retry extends its
// graph, a combined view rebuilds) may tell them apart. It also pins the
// admission accounting: every admission critical section entered — two
// failed optimistic ones plus the serial round's — counts, whatever the set
// size.
func TestSetSizeRetryThenSerialParity(t *testing.T) {
	type step struct {
		phase   obs.Phase
		attempt int
		cause   obs.Cause
	}
	type result struct {
		master model.State
		out    ConnectOutcome
		steps  []step
		counts cost.Counts
	}
	run := func(t *testing.T, shards int) result {
		tr := obs.NewTracer()
		s := NewShardedBase(fleetOrigin(), shards, Config{Observer: tr, MergeAttempts: 2, ShardFn: splitA1})
		m := NewShardedMobileNode("m0", s)
		for i, it := range []model.Item{"a1", "a2"} {
			if err := m.Run(workload.Deposit(fmt.Sprintf("T%d", i), tx.Tentative, it, 5)); err != nil {
				t.Fatal(err)
			}
		}
		fired := 0
		hook := func(attempt int) {
			fired++
			if err := s.ExecBase(workload.SetPrice(fmt.Sprintf("B%d", attempt), tx.Base, "a1", model.Value(200+attempt))); err != nil {
				t.Error(err)
			}
		}
		s.hookAfterPrepare, s.Shard(0).hookAfterPrepare = hook, hook
		out, err := m.ConnectMerge()
		if err != nil {
			t.Fatal(err)
		}
		if fired != 2 {
			t.Fatalf("hook fired %d times, want once per optimistic round (2)", fired)
		}
		traces := tr.Merges()
		if len(traces) != 1 {
			t.Fatalf("got %d merge traces, want 1", len(traces))
		}
		validateTrace(t, traces[0])
		res := result{master: s.Master(), out: *out, counts: s.Counters()}
		res.out.Report = nil
		wantDetail := ""
		if shards > 1 {
			wantDetail = "cross-shard"
		}
		for _, ev := range traces[0].Events {
			switch ev.Phase {
			case obs.PhaseSnapshot, obs.PhaseAdmit, obs.PhaseSerial, obs.PhaseMerge:
				if ev.Detail != wantDetail {
					t.Errorf("%s event carries Detail %q, want %q", ev.Phase, ev.Detail, wantDetail)
				}
			}
			res.steps = append(res.steps, step{ev.Phase, ev.Attempt, ev.Cause})
		}
		return res
	}
	one, two := run(t, 1), run(t, 2)
	if !one.master.Equal(two.master) {
		t.Errorf("masters diverged:\nsize 1 %s\nsize 2 %s", one.master, two.master)
	}
	if fmt.Sprintf("%+v", one.out) != fmt.Sprintf("%+v", two.out) {
		t.Errorf("outcomes diverged:\nsize 1 %+v\nsize 2 %+v", one.out, two.out)
	}
	if fmt.Sprint(one.steps) != fmt.Sprint(two.steps) {
		t.Errorf("phase sequences diverged:\nsize 1 %v\nsize 2 %v", one.steps, two.steps)
	}
	for size, r := range map[int]result{1: one, 2: two} {
		if r.counts.AdmitBatches != 3 {
			t.Errorf("size %d: AdmitBatches = %d, want 3 (two failed optimistic admissions + the serial round)", size, r.counts.AdmitBatches)
		}
		if r.counts.MergesPerformed != 1 || r.counts.CrossShardMerges != int64(size-1) {
			t.Errorf("size %d: merges=%d cross=%d, want 1 and %d", size, r.counts.MergesPerformed, r.counts.CrossShardMerges, size-1)
		}
	}
	var serial int
	for _, st := range one.steps {
		if st.phase == obs.PhaseSerial {
			serial++
			if st.attempt != 2 {
				t.Errorf("serial-degrade mark carries attempt %d, want the exhausted budget 2", st.attempt)
			}
		}
	}
	if serial != 1 {
		t.Errorf("saw %d serial-degrade marks, want 1: %v", serial, one.steps)
	}
}
