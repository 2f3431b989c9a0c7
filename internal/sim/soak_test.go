package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tiermerge/internal/merge"
	"tiermerge/internal/model"
	"tiermerge/internal/replica"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// TestSoakTransferConservation runs a long mixed fleet of transfer-only
// workloads — transfers conserve the total balance, so any lost update,
// double-applied forward, or broken undo shows up as money appearing or
// vanishing. The invariant is checked on the master after every single
// reconnect, across window advances and a multi-node base tier (whose other
// nodes only price propagation).
func TestSoakTransferConservation(t *testing.T) {
	const (
		accounts = 64
		mobiles  = 5
		rounds   = 8
		perRound = 6
	)
	origin := model.NewState()
	var total model.Value
	for i := 0; i < accounts; i++ {
		v := model.Value(1000 + i)
		origin.Set(workload.ItemName(i), v)
		total += v
	}
	sum := func(s model.State) model.Value {
		var x model.Value
		for i := 0; i < accounts; i++ {
			x += s.Get(workload.ItemName(i))
		}
		return x
	}

	b := replica.NewBaseCluster(origin, replica.Config{BaseNodes: 3})
	nodes := make([]*replica.MobileNode, mobiles)
	for i := range nodes {
		nodes[i] = replica.NewMobileNode(fmt.Sprintf("m%d", i+1), b)
	}
	rng := rand.New(rand.NewSource(99))
	seq := 0
	transfer := func(kind tx.Kind) *tx.Transaction {
		seq++
		from := rng.Intn(accounts)
		to := rng.Intn(accounts)
		for to == from {
			to = rng.Intn(accounts)
		}
		amt := model.Value(1 + rng.Int63n(50))
		// Every third transaction guards on the source balance. The guard's
		// general read pins the source to value semantics, so these keep
		// forcing genuine conflicts and back-outs; the plain transfers are
		// pure deltas and exercise the commutative-merge path. Both shapes
		// conserve the fleet-wide total.
		if seq%3 == 0 {
			return workload.GuardedTransfer(fmt.Sprintf("T%d", seq), kind,
				workload.ItemName(from), workload.ItemName(to), amt)
		}
		return workload.Transfer(fmt.Sprintf("T%d", seq), kind,
			workload.ItemName(from), workload.ItemName(to), amt)
	}

	for round := 0; round < rounds; round++ {
		if round > 0 && round%3 == 0 {
			b.AdvanceWindow()
		}
		for k := 0; k < 3; k++ {
			if err := b.ExecBase(transfer(tx.Base)); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range nodes {
			for k := 0; k < perRound; k++ {
				if err := m.Run(transfer(tx.Tentative)); err != nil {
					t.Fatal(err)
				}
			}
			out, err := m.ConnectMerge()
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed > 0 {
				t.Fatalf("round %d: transfer re-execution failed (%+v)", round, out)
			}
			if got := sum(b.Master()); got != total {
				t.Fatalf("round %d after %s: master total %d, want %d (master %s)",
					round, m.ID, got, total, b.Master())
			}
		}
	}
	c := b.Counters().Snapshot()
	if c.TxnsSaved == 0 || c.TxnsBackedOut == 0 {
		t.Errorf("soak too easy: saved=%d backedout=%d", c.TxnsSaved, c.TxnsBackedOut)
	}
	if c.EdgesElided == 0 {
		t.Errorf("pure-delta transfers collided but elided no edges: %+v", c)
	}
	t.Logf("soak: %s", c)
}

// TestSoakAllRewriters repeats a shorter conservation soak under every
// rewriter, including the blind-write generalization and CBTR.
func TestSoakAllRewriters(t *testing.T) {
	for _, rw := range []struct {
		name string
		opt  int
	}{
		{"closure", 1}, {"canfollow", 2}, {"canprecede", 3}, {"cbt", 4}, {"canfollow-bw", 5},
	} {
		rw := rw
		t.Run(rw.name, func(t *testing.T) {
			const accounts = 8
			origin := model.NewState()
			var total model.Value
			for i := 0; i < accounts; i++ {
				origin.Set(workload.ItemName(i), 500)
				total += 500
			}
			cfg := replica.Config{}
			cfg.MergeOptions.Rewriter = merge.Rewriter(rw.opt)
			b := replica.NewBaseCluster(origin, cfg)
			m := replica.NewMobileNode("m1", b)
			rng := rand.New(rand.NewSource(int64(rw.opt) * 101))
			seq := 0
			for round := 0; round < 6; round++ {
				for k := 0; k < 5; k++ {
					seq++
					from, to := rng.Intn(accounts), rng.Intn(accounts)
					for to == from {
						to = rng.Intn(accounts)
					}
					txn := workload.Transfer(fmt.Sprintf("T%d", seq), tx.Tentative,
						workload.ItemName(from), workload.ItemName(to), 7)
					if err := m.Run(txn); err != nil {
						t.Fatal(err)
					}
				}
				seq++
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				for to == from {
					to = rng.Intn(accounts)
				}
				if err := b.ExecBase(workload.Transfer(fmt.Sprintf("T%d", seq), tx.Base,
					workload.ItemName(from), workload.ItemName(to), 3)); err != nil {
					t.Fatal(err)
				}
				if _, err := m.ConnectMerge(); err != nil {
					t.Fatal(err)
				}
				var got model.Value
				for i := 0; i < accounts; i++ {
					got += b.Master().Get(workload.ItemName(i))
				}
				if got != total {
					t.Fatalf("round %d: total %d, want %d", round, got, total)
				}
			}
		})
	}
}

// TestTortureEverythingAtOnce is the capstone soak: windows advancing,
// mobiles crashing and recovering from journals, hot-set contention and a
// drift-tolerant acceptance criterion, over a transfer-only workload whose
// total is conserved by construction — checked on the master after the
// run.
func TestTortureEverythingAtOnce(t *testing.T) {
	const accounts = 32
	origin := model.NewState()
	var total model.Value
	for i := 0; i < accounts; i++ {
		origin.Set(workload.ItemName(i), 1000)
		total += 1000
	}
	b := replica.NewBaseCluster(origin, replica.Config{
		BaseNodes:  3,
		Acceptance: replica.AcceptWithinDrift(1 << 30), // tolerant: transfers always apply
	})
	nodes := make([]*replica.MobileNode, 6)
	for i := range nodes {
		nodes[i] = replica.NewMobileNode(fmt.Sprintf("m%d", i+1), b)
	}
	rng := rand.New(rand.NewSource(4242))
	seq := 0
	hotTransfer := func(kind tx.Kind) *tx.Transaction {
		seq++
		// 70% of traffic hits the first four accounts.
		pick := func() int {
			if rng.Float64() < 0.7 {
				return rng.Intn(4)
			}
			return rng.Intn(accounts)
		}
		from := pick()
		to := pick()
		for to == from {
			to = pick()
		}
		return workload.Transfer(fmt.Sprintf("T%d", seq), kind,
			workload.ItemName(from), workload.ItemName(to), model.Value(1+rng.Int63n(20)))
	}
	sum := func() model.Value {
		var x model.Value
		m := b.Master()
		for i := 0; i < accounts; i++ {
			x += m.Get(workload.ItemName(i))
		}
		return x
	}
	crashes := 0
	for round := 0; round < 12; round++ {
		if round%4 == 3 {
			b.AdvanceWindow()
		}
		for k := 0; k < 2; k++ {
			if err := b.ExecBase(hotTransfer(tx.Base)); err != nil {
				t.Fatal(err)
			}
		}
		for i, m := range nodes {
			var journal bytes.Buffer
			crashing := rng.Float64() < 0.3
			if crashing {
				if err := m.AttachJournal(&journal); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 5; k++ {
				if err := m.Run(hotTransfer(tx.Tentative)); err != nil {
					t.Fatal(err)
				}
			}
			if crashing {
				rec, _, err := replica.RecoverMobileNode(m.ID, bytes.NewReader(journal.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				nodes[i] = rec
				m = rec
				crashes++
			}
			if err := m.Bind(b); err != nil {
				t.Fatal(err)
			}
			if _, err := m.ConnectMerge(); err != nil {
				t.Fatal(err)
			}
			if got := sum(); got != total {
				t.Fatalf("round %d after %s: total %d, want %d", round, m.ID, got, total)
			}
		}
	}
	if crashes == 0 {
		t.Error("torture injected no crashes; tune the seed")
	}
	c := b.Counters().Snapshot()
	if c.MergeFallbacks == 0 {
		t.Error("no window fallbacks exercised")
	}
	t.Logf("torture: crashes=%d %s", crashes, c)
}
