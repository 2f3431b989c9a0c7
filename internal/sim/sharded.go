package sim

import (
	"fmt"
	"math/rand"
	"sync"

	"tiermerge/internal/model"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Sharded fleet driver (Scenario.Shards > 0). The workload is the shape a
// sharded tier exists for: each mobile deposits into its own account item,
// so merges from different mobiles are pairwise disjoint and — once the
// item space is partitioned — run on independent shards with no shared
// mutex, no shared admission queue and no shared master map. PCrossShard
// mixes in transfers to another mobile's account on a different shard,
// exercising cross-shard merges at a controlled rate.

// shardedOrigin builds the fleet's account universe: one funded account
// per mobile.
func shardedOrigin(sc Scenario) model.State {
	origin := model.NewState()
	for i := 1; i <= sc.Mobiles; i++ {
		origin.Set(acct(i), 1000)
	}
	return origin
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

// shardedTxn mints mobile i's k-th tentative transaction of a round:
// a cross-shard transfer with probability sc.PCrossShard, a shard-local
// deposit otherwise.
func shardedTxn(s *replica.ShardedBase, sc Scenario, rng *rand.Rand, i, round, k int) *tx.Transaction {
	id := fmt.Sprintf("T%d.%d.%d", i, round, k)
	if sc.PCrossShard > 0 && rng.Float64() < sc.PCrossShard {
		j := crossPartner(s, sc, i)
		return workload.Transfer(id, tx.Tentative, acct(i), acct(j), 1)
	}
	return workload.Deposit(id, tx.Tentative, acct(i), 1)
}

// runSharded executes a Shards > 0 scenario and returns its result.
func runSharded(sc Scenario, cfg replica.Config) (*Result, error) {
	s := replica.NewShardedBase(shardedOrigin(sc), sc.Shards, cfg)
	res := &Result{Scenario: sc}
	var err error
	if sc.Concurrent {
		err = runShardedConcurrent(sc, s, res)
	} else {
		err = runShardedSerial(sc, s, res)
	}
	if err != nil {
		return nil, err
	}
	res.Counts = s.Counters()
	res.Cost = res.Counts.Weighted(sc.Weights)
	res.FinalMaster = s.Master()
	return res, nil
}

// runShardedSerial is the deterministic mode: per round, base traffic
// commits, then each mobile runs its batch and connects, in fleet order.
func runShardedSerial(sc Scenario, s *replica.ShardedBase, res *Result) error {
	mobiles := make([]*replica.MobileNode, sc.Mobiles)
	rngs := make([]*rand.Rand, sc.Mobiles)
	for i := range mobiles {
		mobiles[i] = replica.NewShardedMobileNode(fmt.Sprintf("m%d", i+1), s)
		rngs[i] = rand.New(rand.NewSource(sc.Seed + int64(i) + 1))
	}
	for round := 0; round < sc.Rounds; round++ {
		if sc.WindowEveryRounds > 0 && round > 0 && round%sc.WindowEveryRounds == 0 {
			s.AdvanceWindow()
		}
		for k := 0; k < sc.BaseTxnsPerRound; k++ {
			if err := s.ExecBase(shardedBaseTxn(sc, round, k)); err != nil {
				return err
			}
		}
		for i, m := range mobiles {
			for k := 0; k < sc.TxnsPerRound; k++ {
				if err := m.Run(shardedTxn(s, sc, rngs[i], i+1, round, k)); err != nil {
					return err
				}
				res.TentativeRun++
			}
			out, err := shardedConnect(sc, m)
			if err != nil {
				return err
			}
			res.FailedReexecutions += int64(out.Failed)
		}
	}
	return nil
}

// runShardedConcurrent runs each mobile as a goroutine — the load shape
// BenchmarkE16ShardedFleet measures. Aggregate tallies stay meaningful but
// are not bit-reproducible.
func runShardedConcurrent(sc Scenario, s *replica.ShardedBase, res *Result) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		failed   int64
		ran      int64
	)
	record := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < sc.Rounds; round++ {
			for k := 0; k < sc.BaseTxnsPerRound; k++ {
				if err := s.ExecBase(shardedBaseTxn(sc, round, k)); err != nil {
					record(err)
					return
				}
			}
		}
	}()
	for i := 0; i < sc.Mobiles; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := replica.NewShardedMobileNode(fmt.Sprintf("m%d", i+1), s)
			rng := rand.New(rand.NewSource(sc.Seed + int64(i) + 1))
			for round := 0; round < sc.Rounds; round++ {
				for k := 0; k < sc.TxnsPerRound; k++ {
					if err := m.Run(shardedTxn(s, sc, rng, i+1, round, k)); err != nil {
						record(err)
						return
					}
					mu.Lock()
					ran++
					mu.Unlock()
				}
				out, err := shardedConnect(sc, m)
				if err != nil {
					record(err)
					return
				}
				mu.Lock()
				failed += int64(out.Failed)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	res.FailedReexecutions = failed
	res.TentativeRun = ran
	return firstErr
}

func shardedConnect(sc Scenario, m *replica.MobileNode) (*replica.ConnectOutcome, error) {
	if sc.Protocol == Reprocessing {
		return m.ConnectReprocess(), nil
	}
	return m.ConnectMerge()
}

// shardedBaseTxn is the background base traffic: deterministic deposits
// round-robining over the fleet's accounts.
func shardedBaseTxn(sc Scenario, round, k int) *tx.Transaction {
	i := (round*sc.BaseTxnsPerRound+k)%sc.Mobiles + 1
	return workload.Deposit(fmt.Sprintf("Tb%d.%d", round, k), tx.Base, acct(i), 2)
}
