package replica

import (
	"testing"

	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

func origin() model.State {
	return model.StateOf(map[model.Item]model.Value{
		"x": 100, "y": 200, "z": 300, "w": 400,
	})
}

func TestExecBaseUpdatesMasterAndHistory(t *testing.T) {
	b := NewBaseCluster(origin(), Config{BaseNodes: 3})
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "x", 10)); err != nil {
		t.Fatal(err)
	}
	if got := b.Master().Get("x"); got != 110 {
		t.Errorf("master x = %d, want 110", got)
	}
	if b.HistoryLen() != 1 {
		t.Errorf("history len = %d, want 1", b.HistoryLen())
	}
	c := b.Counters().Snapshot()
	if c.BaseForcedWrites != 1 || c.BaseQueries == 0 || c.BaseLocks == 0 {
		t.Errorf("counters = %+v", c)
	}
	// Propagation to the two other base replicas.
	if c.Messages != 2 {
		t.Errorf("propagation messages = %d, want 2", c.Messages)
	}
}

func TestExecBaseRejectsTentative(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	if err := b.ExecBase(workload.Deposit("Tm1", tx.Tentative, "x", 10)); err == nil {
		t.Error("tentative transaction accepted as base")
	}
}

func TestMobileRunsTentativeLocally(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	if got := m.Local().Get("x"); got != 105 {
		t.Errorf("local x = %d, want 105", got)
	}
	// Master untouched while disconnected.
	if got := b.Master().Get("x"); got != 100 {
		t.Errorf("master x = %d, want 100", got)
	}
	if m.Pending() != 1 {
		t.Errorf("pending = %d", m.Pending())
	}
	if err := m.Run(workload.Deposit("Tb9", tx.Base, "x", 5)); err == nil {
		t.Error("base transaction accepted as tentative")
	}
}

func TestMergeNoConflictForwardsUpdates(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "z", 7)); err != nil {
		t.Fatal(err)
	}
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Merged || out.Saved != 1 || out.Reprocessed != 0 {
		t.Errorf("outcome = %+v", out)
	}
	master := b.Master()
	if master.Get("x") != 105 || master.Get("z") != 307 {
		t.Errorf("master = %s", master)
	}
	// The tentative history reset after the merge.
	if m.Pending() != 0 {
		t.Errorf("pending after merge = %d", m.Pending())
	}
	c := b.Counters().Snapshot()
	if c.TxnsSaved != 1 || c.MergesPerformed != 1 || c.TxnsReprocessed != 0 {
		t.Errorf("counters = %+v", c)
	}
}

func TestMergeConflictBacksOutAndReexecutes(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	// Both tiers set the same item's price: a certain write-write conflict.
	if err := m.Run(workload.SetPrice("Tm1", tx.Tentative, "x", 111)); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.SetPrice("Tb1", tx.Base, "x", 222)); err != nil {
		t.Fatal(err)
	}
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Merged {
		t.Fatal("merge did not run")
	}
	if out.Saved != 0 || out.Reprocessed != 1 {
		t.Errorf("outcome = %+v, want backed out + reexecuted", out)
	}
	// Re-execution runs after the base write: master x = 111 (the
	// reprocessed setprice applied last).
	if got := b.Master().Get("x"); got != 111 {
		t.Errorf("master x = %d, want 111", got)
	}
	c := b.Counters().Snapshot()
	if c.TxnsBackedOut != 1 || c.TxnsReprocessed != 1 {
		t.Errorf("counters = %+v", c)
	}
}

// TestSecondMergeSeesFirstMergesUpdates checks Strategy 2 multi-mobile
// semantics: a second mobile whose transaction conflicts with the first
// mobile's forwarded updates gets backed out, not silently lost.
func TestSecondMergeSeesFirstMergesUpdates(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m1 := NewMobileNode("m1", b)
	m2 := NewMobileNode("m2", b)
	if err := m1.Run(workload.SetPrice("Tm1", tx.Tentative, "x", 111)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(workload.SetPrice("Tm2", tx.Tentative, "x", 333)); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.ConnectMerge(); err != nil {
		t.Fatal(err)
	}
	out2, err := m2.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out2.Saved != 0 || out2.Reprocessed != 1 {
		t.Errorf("m2 outcome = %+v, want conflict with m1's forwarded write", out2)
	}
	if got := b.Master().Get("x"); got != 333 {
		t.Errorf("master x = %d, want 333 (m2's reprocessed write last)", got)
	}
}

func TestWindowExpiryForcesReprocess(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out.Merged || out.Fallback != FallbackWindowExpired {
		t.Errorf("outcome = %+v, want window-expired fallback", out)
	}
	if out.Reprocessed != 1 {
		t.Errorf("reprocessed = %d, want 1", out.Reprocessed)
	}
	if got := b.Counters().Snapshot().MergeFallbacks; got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	// After the fallback the node checked out the new window: merging works
	// again.
	if err := m.Run(workload.Deposit("Tm2", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	out, err = m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Merged {
		t.Errorf("second connect should merge: %+v", out)
	}
}

// TestStrategy1Anomaly reproduces the Figure 2 problem: under Strategy 1,
// a merge by one mobile invalidates the recorded origin of another mobile
// that checked out later, forcing it to reprocess. Under Strategy 2 the
// same interleaving merges cleanly.
func TestStrategy1Anomaly(t *testing.T) {
	scenario := func(strategy OriginStrategy) (fallbacks int64, out2 *ConnectOutcome) {
		b := NewBaseCluster(origin(), Config{Origin: strategy})
		mA := NewMobileNode("A", b) // checks out at t1 (position 0)
		// A base transaction commits between the two checkouts.
		if err := b.ExecBase(workload.Deposit("Tb1", tx.Base, "z", 7)); err != nil {
			t.Fatal(err)
		}
		mB := NewMobileNode("B", b) // checks out at t2 (position 1)
		// Both mobiles work; A updates x, which B's origin state contains.
		if err := mA.Run(workload.Deposit("TmA1", tx.Tentative, "x", 5)); err != nil {
			t.Fatal(err)
		}
		if err := mB.Run(workload.Deposit("TmB1", tx.Tentative, "y", 9)); err != nil {
			t.Fatal(err)
		}
		// A merges first (t3): under Strategy 1 its updates serialize at
		// its checkout position, before B's.
		if _, err := mA.ConnectMerge(); err != nil {
			t.Fatal(err)
		}
		o2, err := mB.ConnectMerge()
		if err != nil {
			t.Fatal(err)
		}
		return b.Counters().Snapshot().MergeFallbacks, o2
	}

	fb1, out1 := scenario(Strategy1)
	if fb1 == 0 || out1.Merged || out1.Fallback != FallbackOriginInvalid {
		t.Errorf("Strategy 1: fallbacks=%d outcome=%+v, want origin-invalidated fallback",
			fb1, out1)
	}
	fb2, out2 := scenario(Strategy2)
	if fb2 != 0 || !out2.Merged {
		t.Errorf("Strategy 2: fallbacks=%d outcome=%+v, want clean merge", fb2, out2)
	}
}

// TestStrategy1InsertConflict: when committed base work after the checkout
// point conflicts with the forwarded updates, Strategy 1 cannot serialize
// the tentative work at its origin and falls back.
func TestStrategy1InsertConflict(t *testing.T) {
	b := NewBaseCluster(origin(), Config{Origin: Strategy1})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	// A base transaction touches an item the mobile also updates, but only
	// reads it — no cycle (base read precedes the tentative write in the
	// merged order), yet inserting at the origin would rewrite the read.
	if err := b.ExecBase(workload.Audit("Tb1", tx.Base, "x")); err != nil {
		t.Fatal(err)
	}
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out.Merged || out.Fallback != FallbackInsertConflict {
		t.Errorf("outcome = %+v, want insert-conflict fallback", out)
	}
}

// TestReprocessFailureReported: a tentative transaction that is no longer
// defined on the master state (division by zero after a base write) is
// reported as failed, matching the protocol's "failed reexecutions will be
// informed to the users".
func TestReprocessFailureReported(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	// Tentative accrual divides by rate read from an item the base zeroes.
	acc := tx.MustNew("Tm1", tx.Tentative,
		tx.Update("x", txDivByItem()),
	)
	if err := m.Run(acc); err != nil {
		t.Fatal(err)
	}
	// Base sets the divisor item to zero AND writes x so the tentative
	// transaction conflicts and must be re-executed.
	if err := b.ExecBase(workload.SetPrice("Tb1", tx.Base, "w", 0)); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.SetPrice("Tb2", tx.Base, "x", 1)); err != nil {
		t.Fatal(err)
	}
	out, err := m.ConnectMerge()
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 1 {
		t.Errorf("outcome = %+v, want one failed re-execution", out)
	}
}

func ids(prefix string, node, k int) string {
	return prefix + string(rune('A'+node)) + string(rune('0'+k))
}

// TestPreviewMergeIsDryRun: previews report the would-be outcome without
// committing anything.
func TestPreviewMergeIsDryRun(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.SetPrice("Tm1", tx.Tentative, "x", 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.ExecBase(workload.SetPrice("Tb1", tx.Base, "x", 2)); err != nil {
		t.Fatal(err)
	}
	rep, err := m.PreviewMerge()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BadIDs) != 1 || rep.BadIDs[0] != "Tm1" {
		t.Errorf("preview B = %v", rep.BadIDs)
	}
	// Nothing changed: master keeps only the base write, the node keeps
	// its pending work, and a second preview agrees.
	if got := b.Master().Get("x"); got != 2 {
		t.Errorf("preview committed something: x = %d", got)
	}
	if m.Pending() != 1 {
		t.Errorf("preview consumed the pending history")
	}
	rep2, err := m.PreviewMerge()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.BadIDs) != 1 {
		t.Errorf("second preview differs: %v", rep2.BadIDs)
	}
}

// TestPreviewReportsExpiredWindow: previews fail fast when a merge would
// fall back.
func TestPreviewReportsExpiredWindow(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("Tm1", tx.Tentative, "x", 1)); err != nil {
		t.Fatal(err)
	}
	b.AdvanceWindow()
	if _, err := m.PreviewMerge(); err == nil {
		t.Error("preview after window expiry succeeded")
	}
}

// TestEnumStrings covers the descriptive Stringers.
func TestEnumStrings(t *testing.T) {
	if Strategy1.String() != "strategy-1" || Strategy2.String() != "strategy-2" {
		t.Error("OriginStrategy strings")
	}
	if OriginStrategy(9).String() != "unknown" {
		t.Error("unknown origin strategy string")
	}
	b := NewBaseCluster(origin(), Config{})
	if b.Weights().ForcedWriteCost == 0 {
		t.Error("Weights accessor broken")
	}
}
