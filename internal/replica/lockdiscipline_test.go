package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/obs"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// Tests for the lock discipline (DESIGN.md §8): no observer event is
// delivered while a cluster mutex is held, every multi-cluster critical
// section takes its mutexes in ascending shard order, and a merge never
// writes into the compiled footprints its transactions share. The
// checkpoint's file work outside the mutex is checked in
// checkpoint_unix_test.go.

// lockProbe is an observer that fails the test when an event arrives while
// one of its clusters' mutexes is held. Observers run caller code, which
// must never run inside a critical section. The tests drive the tier from
// one goroutine, so a held mutex can only be the emitting call's own and
// TryLock is exact.
type lockProbe struct {
	t        *testing.T
	clusters []*BaseCluster
	seen     map[obs.Phase]bool
}

func (p *lockProbe) Observe(ev obs.Event) {
	p.seen[ev.Phase] = true
	for k, b := range p.clusters {
		if !b.mu.TryLock() {
			p.t.Errorf("%s event (mobile %q) delivered while cluster %d's mutex is held", ev.Phase, ev.Mobile, k)
			continue
		}
		b.mu.Unlock()
	}
}

// lastDigitShard routes an item by its last byte, so the fleet's items land
// on known shards: p and every x0 on shard 0, x1 on shard 1, and so on.
func lastDigitShard(it model.Item) int { return int(it[len(it)-1]) }

// windowedTier is a base tier a test can also advance.
type windowedTier interface {
	BaseTier
	AdvanceWindow() int
}

// TestEventsOutsideLock drives every path that emits an observer event —
// checkout, tentative run, base transaction (cross-shard on the sharded
// tier), preview, a merge that saves everything, one that backs out, a
// window advance, a merge that falls back on the expired window, and
// reprocessing — and fails if any event arrives while a cluster mutex is
// held, over one cluster and over four shards.
func TestEventsOutsideLock(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(cfg Config) (windowedTier, []*BaseCluster, func(string) *MobileNode)
	}{
		{"cluster", func(cfg Config) (windowedTier, []*BaseCluster, func(string) *MobileNode) {
			b := NewBaseCluster(fleetOrigin(), cfg)
			return b, []*BaseCluster{b}, func(id string) *MobileNode { return NewMobileNode(id, b) }
		}},
		{"4shards", func(cfg Config) (windowedTier, []*BaseCluster, func(string) *MobileNode) {
			cfg.ShardFn = lastDigitShard
			s := NewShardedBase(fleetOrigin(), 4, cfg)
			bs := make([]*BaseCluster, s.Shards())
			for k := range bs {
				bs[k] = s.Shard(k)
			}
			return s, bs, func(id string) *MobileNode { return NewShardedMobileNode(id, s) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := &lockProbe{t: t, seen: map[obs.Phase]bool{}}
			cfg := Config{Observer: probe}
			cfg.MergeOptions.Observer = probe
			tier, clusters, mobile := tc.open(cfg)
			probe.clusters = clusters

			m1, m2, m3 := mobile("m1"), mobile("m2"), mobile("m3")
			run := func(m *MobileNode, t1 *tx.Transaction) {
				t.Helper()
				if err := m.Run(t1); err != nil {
					t.Fatal(err)
				}
			}
			run(m1, workload.SetPrice("T1", tx.Tentative, "p", 70))
			run(m2, workload.SetPrice("T2", tx.Tentative, "p", 80))
			run(m2, workload.Deposit("T3", tx.Tentative, "a1", 5))
			run(m3, workload.Deposit("T4", tx.Tentative, "a2", 5))
			if err := tier.ExecBase(workload.Transfer("B1", tx.Base, "b2", "b3", 5)); err != nil {
				t.Fatal(err)
			}
			if _, err := m2.PreviewMerge(); err != nil {
				t.Fatal(err)
			}
			if _, err := m1.ConnectMerge(); err != nil {
				t.Fatal(err)
			}
			out, err := m2.ConnectMerge()
			if err != nil {
				t.Fatal(err)
			}
			if len(out.BadIDs) == 0 {
				t.Fatal("m2's price update should cycle with m1's installed one and back out")
			}
			tier.AdvanceWindow()
			run(m1, workload.Deposit("T5", tx.Tentative, "a0", 5))
			if out, err := m1.ConnectMerge(); err != nil {
				t.Fatal(err)
			} else if out.Fallback != FallbackWindowExpired {
				t.Fatalf("merge across a window advance: fallback %v, want %v", out.Fallback, FallbackWindowExpired)
			}
			m3.ConnectReprocess()

			for _, want := range []obs.Phase{
				obs.PhaseCheckout, obs.PhaseRun, obs.PhaseLockWait, obs.PhaseSnapshot,
				obs.PhaseGraph, obs.PhaseBackout, obs.PhaseAdmit, obs.PhaseFallback,
				obs.PhaseReprocess, obs.PhaseMerge,
			} {
				if !probe.seen[want] {
					t.Errorf("phase %s never observed: the drive no longer reaches it", want)
				}
			}
		})
	}
}

// TestClusterSetsAscending: every cluster set lists its members in strictly
// ascending shard order, parallel to its shard indices. lockClusters takes
// the members' mutexes in the order it is given, so this order is the one
// global acquisition order that keeps merges and base transactions on
// overlapping shards from deadlocking.
func TestClusterSetsAscending(t *testing.T) {
	const shards = 5
	s := NewShardedBase(fleetOrigin(), shards, Config{})
	check := func(what string, cs *clusterSet) {
		t.Helper()
		if len(cs.involved) == 0 || len(cs.members) != len(cs.involved) {
			t.Fatalf("%s: %d members over shards %v", what, len(cs.members), cs.involved)
		}
		for i, k := range cs.involved {
			if i > 0 && k <= cs.involved[i-1] {
				t.Fatalf("%s: shards %v not strictly ascending", what, cs.involved)
			}
			if cs.members[i] != s.Shard(k) {
				t.Fatalf("%s: member %d is not shard %d's cluster", what, i, k)
			}
		}
	}
	check("every", s.every(s.cfg))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		fp := make(model.ItemSet)
		for n := rng.Intn(6); n >= 0; n-- {
			fp.Add(model.Item(fmt.Sprintf("i%d", rng.Intn(40))))
		}
		check(fmt.Sprintf("over %v", fp), s.over(fp.Items()))
	}
}

// TestMergeLeavesFootprintsAlone: a merge reads the compiled footprints of
// Hm's transactions (sorted slices shared with every execution and every
// copy of the transaction) and Hm's effects, and must never write into
// either. The first transaction is a guarded transfer that does not fire:
// its run touches fewer items than its footprint names, so a merge that
// collected the run's items into that footprint's array would change it.
func TestMergeLeavesFootprintsAlone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mobile func() *MobileNode
	}{
		{"cluster", func() *MobileNode { return NewMobileNode("m", NewBaseCluster(fleetOrigin(), Config{})) }},
		{"4shards", func() *MobileNode {
			return NewShardedMobileNode("m", NewShardedBase(fleetOrigin(), 4, Config{ShardFn: lastDigitShard}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mobile()
			txns := []*tx.Transaction{
				workload.GuardedTransfer("T0", tx.Tentative, "a2", "b2", 500),
				workload.Deposit("T1", tx.Tentative, "a0", 5),
				workload.Deposit("T2", tx.Tentative, "a1", 5),
			}
			var before [][]model.Item
			for _, t1 := range txns {
				if err := m.Run(t1); err != nil {
					t.Fatal(err)
				}
				before = append(before, slices.Clone(t1.Footprint()))
			}
			hm := m.Augmented()
			var effs []*tx.Effect
			for _, eff := range hm.Effects {
				effs = append(effs, eff.Clone())
			}
			if _, err := m.ConnectMerge(); err != nil {
				t.Fatal(err)
			}
			for i, t1 := range txns {
				if got := t1.Footprint(); !slices.Equal(got, before[i]) {
					t.Errorf("%s's footprint became %v after the merge, want %v", t1.ID, got, before[i])
				}
				if got := hm.Effects[i]; !reflect.DeepEqual(got, effs[i]) {
					t.Errorf("%s's effect became %+v after the merge, want %+v", t1.ID, got, effs[i])
				}
			}
		})
	}
}
