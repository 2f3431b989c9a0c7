package sim

import (
	"fmt"
	"math/rand"

	"tiermerge/internal/model"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// shardedTier is a ShardedBase (Scenario.Shards > 0) fed the workload a
// sharded tier exists for: each mobile deposits into its own funded
// account, so merges from different mobiles are pairwise disjoint and —
// once the item space is partitioned — run on independent shards with no
// shared mutex, admission queue or master map. PCrossShard mixes in
// transfers to another mobile's account on a different shard, exercising
// cross-shard merges at a controlled rate. The base traffic deposits
// round-robin over the accounts.
func shardedTier(sc Scenario, cfg replica.Config) *tier {
	origin := model.NewState()
	for i := 1; i <= sc.Mobiles; i++ {
		origin.Set(acct(i), 1000)
	}
	s := replica.NewShardedBase(origin, sc.Shards, cfg)
	return &tier{
		BaseTier: s,
		advance:  s.AdvanceWindow,
		counts:   s.Counters,
		node:     func(id string) *replica.MobileNode { return replica.NewShardedMobileNode(id, s) },
		baseTxn: func(round, k int) *tx.Transaction {
			i := (round*sc.BaseTxnsPerRound+k)%sc.Mobiles + 1
			return workload.Deposit(fmt.Sprintf("Tb%d.%d", round, k), tx.Base, acct(i), 2)
		},
		feed: func(i int) func(round, k int) *tx.Transaction {
			i++ // accounts and transaction IDs count mobiles from 1
			rng := rand.New(rand.NewSource(sc.Seed + int64(i)))
			partner := acct(crossPartner(s, sc, i))
			return func(round, k int) *tx.Transaction {
				id := fmt.Sprintf("T%d.%d.%d", i, round, k)
				if sc.PCrossShard > 0 && rng.Float64() < sc.PCrossShard {
					return workload.Transfer(id, tx.Tentative, acct(i), partner, 1)
				}
				return workload.Deposit(id, tx.Tentative, acct(i), 1)
			}
		},
	}
}

func acct(i int) model.Item { return model.Item(fmt.Sprintf("m%d.acct", i)) }

// crossPartner picks the deterministic transfer target for mobile i: the
// first other mobile whose account lives on a different shard (wrapping),
// or simply the next mobile when every account shares one shard.
func crossPartner(s *replica.ShardedBase, sc Scenario, i int) int {
	home := s.ShardOf(acct(i))
	for d := 1; d < sc.Mobiles; d++ {
		j := (i-1+d)%sc.Mobiles + 1
		if s.ShardOf(acct(j)) != home {
			return j
		}
	}
	return i%sc.Mobiles + 1
}
