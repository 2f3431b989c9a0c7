package experiments

import (
	"fmt"
	"time"

	"tiermerge/internal/model"
	"tiermerge/internal/sim"
)

// E16ShardedFleet validates the sharded base tier: the same deterministic
// fleet runs against 1, 2 and 4 shards at two cross-shard ratios, and the
// partitioning must be invisible to the protocol's outcome.
//
// Each mobile deposits into its own account, so at ratio 0 every merge is
// single-shard and the final master must be byte-identical across shard
// counts. At a positive ratio some transactions are transfers to an
// account on another shard; the transfer targets depend on the partition,
// so the per-item states legitimately differ, but transfers are zero-sum
// — the fleet's total balance must still agree across shard counts, and
// the cross-shard merge path must actually fire (CrossShardMerges >
// 0). A final concurrent pass reconnects the disjoint fleet through
// goroutines per shard count; BenchmarkE16ShardedFleet measures the
// speedup this experiment only sanity-checks for completeness.
func E16ShardedFleet() *Table {
	t := &Table{
		ID:    "E16",
		Title: "Sharded base tier: per-shard admission and cross-shard merges",
		Header: []string{
			"shards", "cross ratio", "merges", "cross-shard", "fallbacks",
			"reprocessed", "total balance", "conc ms",
		},
	}
	const mobiles, rounds, txns = 8, 3, 4

	base := sim.Scenario{
		Seed: 7, Mobiles: mobiles, Rounds: rounds, TxnsPerRound: txns,
		BaseTxnsPerRound: 2, WindowEveryRounds: 2,
	}
	shardCounts := []int{1, 2, 4}
	ratios := []float64{0, 0.25}

	type key struct {
		shards int
		ratio  float64
	}
	results := make(map[key]*sim.Result)
	concMS := make(map[key]float64)
	for _, ratio := range ratios {
		for _, shards := range shardCounts {
			sc := base
			sc.Shards = shards
			sc.PCrossShard = ratio
			res, err := sim.Run(sc)
			if err != nil {
				panic(err)
			}
			results[key{shards, ratio}] = res

			conc := sc
			conc.Concurrent = true
			start := time.Now()
			if _, err := sim.Run(conc); err != nil {
				panic(err)
			}
			concMS[key{shards, ratio}] = float64(time.Since(start)) / float64(time.Millisecond)

			t.Rows = append(t.Rows, []string{
				fmt.Sprint(shards), fmt.Sprintf("%.2f", ratio),
				fmt.Sprint(res.Counts.MergesPerformed),
				fmt.Sprint(res.Counts.CrossShardMerges),
				fmt.Sprint(res.Counts.MergeFallbacks),
				fmt.Sprint(res.Counts.TxnsReprocessed),
				fmt.Sprint(totalBalance(res.FinalMaster)),
				fmt.Sprintf("%.2f", concMS[key{shards, ratio}]),
			})
		}
	}

	// At ratio 0 the partition must be invisible: identical masters.
	disjointEqual := true
	ref := results[key{1, 0}]
	for _, shards := range shardCounts[1:] {
		if !ref.FinalMaster.Equal(results[key{shards, 0}].FinalMaster) {
			disjointEqual = false
		}
	}
	// At every ratio the fleet's total balance is partition-independent.
	balancesAgree := true
	for _, ratio := range ratios {
		want := totalBalance(results[key{1, ratio}].FinalMaster)
		for _, shards := range shardCounts[1:] {
			if totalBalance(results[key{shards, ratio}].FinalMaster) != want {
				balancesAgree = false
			}
		}
	}
	// The cross-shard machinery fires exactly when it should.
	noCrossAtZero := true
	for _, shards := range shardCounts {
		if results[key{shards, 0}].Counts.CrossShardMerges != 0 {
			noCrossAtZero = false
		}
	}
	crossFires := results[key{2, 0.25}].Counts.CrossShardMerges > 0 &&
		results[key{4, 0.25}].Counts.CrossShardMerges > 0
	// A 1-shard tier has no second shard to span.
	oneShardLocal := results[key{1, 0.25}].Counts.CrossShardMerges == 0

	t.Checks = append(t.Checks,
		Check{Name: "disjoint fleet lands on identical masters across 1/2/4 shards", OK: disjointEqual},
		Check{Name: "total balance is partition-independent at every cross ratio", OK: balancesAgree},
		Check{Name: "no cross-shard merges on an all-disjoint fleet", OK: noCrossAtZero},
		Check{Name: "cross-shard merge path fires at positive ratio on 2 and 4 shards", OK: crossFires,
			Note: fmt.Sprintf("cross-shard merges: 2 shards=%d, 4 shards=%d",
				results[key{2, 0.25}].Counts.CrossShardMerges,
				results[key{4, 0.25}].Counts.CrossShardMerges)},
		Check{Name: "single-shard tier never reports a cross-shard merge", OK: oneShardLocal},
	)
	return t
}

// totalBalance sums every account in a final master state; transfers are
// zero-sum, so the fleet total depends only on the merged deposits.
func totalBalance(st model.State) model.Value {
	var total model.Value
	for _, it := range st.Items() {
		total += st.Get(it)
	}
	return total
}
