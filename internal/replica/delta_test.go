package replica

import (
	"fmt"
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Serial-order equivalence tests for delta-merge semantics: every scenario
// runs twice — once with commutative increments merged as first-class
// deltas (the default) and once with merge.Options.DisableDeltas pinning
// the seed's value-write behavior — and the final masters must be
// identical. The delta arm must get there with edge elision and without
// back-outs where the value arm reprocesses. The suite runs under -race in
// scripts/check.sh, so the concurrent arms double as data-race probes.

// counterFleet builds n mobiles that all deposit into the shared account
// "s" (the contended counter) and into a private account each.
func counterFleet(t *testing.T, n int, opts merge.Options) (*BaseCluster, []*MobileNode) {
	t.Helper()
	b := NewBaseCluster(fleetOrigin(), Config{MergeOptions: opts})
	ms := make([]*MobileNode, n)
	for i := range ms {
		ms[i] = NewMobileNode(fmt.Sprintf("m%d", i), b)
		for k := 0; k < 2; k++ {
			if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Ts%d.%d", i, k), tx.Tentative, "s", model.Value(1+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ms[i].Run(workload.Deposit(fmt.Sprintf("Ta%d", i), tx.Tentative, model.Item(fmt.Sprintf("a%d", i)), 5)); err != nil {
			t.Fatal(err)
		}
	}
	return b, ms
}

// TestDeltaMergeMatchesValueWrites: a contended counter fleet reconnecting
// concurrently must land on the identical master with
// and without delta semantics. The delta arm saves every increment with no
// back-outs and elides the delta-delta conflict edges; the value arm pays
// for the same outcome with reprocessing.
func TestDeltaMergeMatchesValueWrites(t *testing.T) {
	const n = 6
	run := func(disable bool) (model.State, int64, int64, int64, int) {
		b, ms := counterFleet(t, n, merge.Options{DisableDeltas: disable})
		outs := connectAll(b, ms, t)
		reproc := 0
		for _, o := range outs {
			reproc += o.Reprocessed
		}
		c := b.Counters().Snapshot()
		return b.Master(), c.TxnsBackedOut, c.EdgesElided, c.DeltaFolded, reproc
	}
	valueMaster, valueBackouts, valueElided, valueFolded, _ := run(true)
	deltaMaster, deltaBackouts, deltaElided, deltaFolded, deltaReproc := run(false)

	if !valueMaster.Equal(deltaMaster) {
		t.Errorf("masters diverged:\nvalue %s\ndelta %s", valueMaster, deltaMaster)
	}
	if valueElided != 0 || valueFolded != 0 {
		t.Errorf("DisableDeltas arm still elided %d edges / folded %d deltas", valueElided, valueFolded)
	}
	if deltaBackouts != 0 || deltaReproc != 0 {
		t.Errorf("delta arm backed out %d / reprocessed %d, want all increments saved",
			deltaBackouts, deltaReproc)
	}
	if valueBackouts == 0 {
		t.Error("value arm saw no back-outs — the counter was not contended enough to prove anything")
	}
	if deltaElided == 0 {
		t.Error("delta arm elided no edges on a contended counter")
	}
	if deltaFolded == 0 {
		t.Error("delta arm folded no increments (two same-item deposits per mobile)")
	}
}

// TestDeltaShardedMatchesValueWrites: the same equivalence over a 4-shard
// tier with cross-shard transfers — cross-shard merges must fold and
// elide deltas exactly like shard-local ones, and partitioning
// must not change the merged outcome in either arm.
func TestDeltaShardedMatchesValueWrites(t *testing.T) {
	const n, shards = 6, 4
	run := func(disable bool) (model.State, cost.Counts) {
		s := NewShardedBase(shardFleetOrigin(n), shards, Config{
			MergeOptions: merge.Options{DisableDeltas: disable},
		})
		ms := make([]*MobileNode, n)
		for i := range ms {
			ms[i] = NewShardedMobileNode(fmt.Sprintf("m%d", i), s)
			next := (i + 1) % n
			if err := ms[i].Run(workload.Transfer(fmt.Sprintf("Tx%d", i), tx.Tentative,
				shardAcct(i), shardAcct(next), 3)); err != nil {
				t.Fatal(err)
			}
		}
		connectAllSharded(t, ms)
		return s.Master(), s.Counters()
	}
	valueMaster, _ := run(true)
	deltaMaster, deltaCounts := run(false)

	if !valueMaster.Equal(deltaMaster) {
		t.Errorf("masters diverged:\nvalue %s\ndelta %s", valueMaster, deltaMaster)
	}
	var total model.Value
	for i := 0; i < n; i++ {
		total += deltaMaster.Get(shardAcct(i))
	}
	if total != model.Value(n*100) {
		t.Errorf("transfer ring lost money: total %d, want %d", total, n*100)
	}
	if deltaCounts.CrossShardMerges == 0 {
		t.Error("transfer ring drove no cross-shard merges")
	}
	if deltaCounts.TxnsBackedOut != 0 {
		t.Errorf("delta arm backed out %d commuting transfers", deltaCounts.TxnsBackedOut)
	}
}
