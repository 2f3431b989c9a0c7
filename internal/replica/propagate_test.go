package replica

import (
	"testing"

	"tiermerge/internal/cost"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// TestPropagationCharge: every commit that writes — a base transaction, a
// merge's forwarded write-back, a re-executed tentative transaction, and
// each of them again when recovery replays it — charges one message of its
// write images to each of the other BaseNodes-1 base replicas. A one-node
// cluster charges none, and the charge allocates nothing.
func TestPropagationCharge(t *testing.T) {
	run := func(nodes int) (before, after cost.Counts, commits, writes int64) {
		dir := t.TempDir()
		b, _, err := OpenBase(dir, origin(), Config{BaseNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		m1, m2 := NewMobileNode("m1", b), NewMobileNode("m2", b)
		if err := m1.Run(workload.Deposit("Tm1", tx.Tentative, "x", 5)); err != nil {
			t.Fatal(err)
		}
		if err := m2.Run(workload.SetPrice("Tm2", tx.Tentative, "x", 999)); err != nil {
			t.Fatal(err)
		}
		if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "z", 7)); err != nil {
			t.Fatal(err)
		}
		for _, m := range []*MobileNode{m1, m2} {
			if _, err := m.ConnectMerge(); err != nil {
				t.Fatal(err)
			}
		}
		b.mu.Lock()
		for _, e := range b.entries {
			n := int64(0)
			for _, r := range e.eff.Items {
				if r.Written {
					n++
				}
			}
			if n > 0 {
				commits++
				writes += n
			}
		}
		b.mu.Unlock()
		before = b.Counters().Snapshot()
		if err := b.CloseStore(); err != nil {
			t.Fatal(err)
		}
		b, _, err = OpenBase(dir, origin(), Config{BaseNodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		defer b.CloseStore()
		return before, b.Counters().Snapshot(), commits, writes
	}
	one, oneReplayed, commits, writes := run(1)
	if commits < 3 {
		t.Fatalf("workload committed %d entries, want at least 3", commits)
	}
	w := cost.DefaultWeights()
	for _, nodes := range []int{2, 4} {
		c, replayed, _, _ := run(nodes)
		n := int64(nodes - 1)
		if got, want := c.Messages-one.Messages, n*commits; got != want {
			t.Errorf("BaseNodes %d: %d propagation messages, want %d", nodes, got, want)
		}
		if got, want := c.Bytes-one.Bytes, n*(commits*w.MsgOverheadBytes+writes*w.UpdateEntryBytes); got != want {
			t.Errorf("BaseNodes %d: %d propagation bytes, want %d", nodes, got, want)
		}
		if got, want := replayed.Messages-oneReplayed.Messages, n*commits; got != want {
			t.Errorf("BaseNodes %d: replay charged %d propagation messages, want %d", nodes, got, want)
		}
	}

	eff := &tx.Effect{Items: []tx.ItemEffect{{Item: "x", Written: true}}}
	for _, nodes := range []int{1, 3} {
		b := NewBaseCluster(origin(), Config{BaseNodes: nodes})
		b.mu.Lock()
		allocs := testing.AllocsPerRun(100, func() { b.chargePropagation(eff) })
		b.mu.Unlock()
		if allocs != 0 {
			t.Errorf("BaseNodes %d: the propagation charge allocated %.0f times, want 0", nodes, allocs)
		}
	}
}
