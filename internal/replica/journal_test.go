package replica

import (
	"bytes"
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

// TestCrashRecoveryMergesIdentically journals a mobile node's period,
// "crashes" it, recovers a fresh node from the journal, and checks the
// recovered node's merge produces exactly the outcome the lost node would
// have produced.
func TestCrashRecoveryMergesIdentically(t *testing.T) {
	runScenario := func(recover bool) (saved, reprocessed int, master string) {
		b := NewBaseCluster(origin(), Config{})
		m := NewMobileNode("m1", b)
		var journal bytes.Buffer
		if err := m.AttachJournal(&journal); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(workload.Deposit("T1", tx.Tentative, "x", 5)); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(workload.SetPrice("T2", tx.Tentative, "y", 77)); err != nil {
			t.Fatal(err)
		}
		// Base work that conflicts with T2.
		if err := b.ExecBase(workload.SetPrice("Tb1", tx.Base, "y", 88)); err != nil {
			t.Fatal(err)
		}
		node := m
		if recover {
			rec, _, err := RecoverMobileNode("m1", bytes.NewReader(journal.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			node = rec
			if err := node.Bind(b); err != nil {
				t.Fatal(err)
			}
		}
		out, err := node.ConnectMerge()
		if err != nil {
			t.Fatal(err)
		}
		return out.Saved, out.Reprocessed, b.Master().String()
	}

	s1, r1, m1 := runScenario(false)
	s2, r2, m2 := runScenario(true)
	if s1 != s2 || r1 != r2 || m1 != m2 {
		t.Errorf("recovered merge differs: (%d,%d,%s) vs (%d,%d,%s)",
			s1, r1, m1, s2, r2, m2)
	}
	if s1 != 1 || r1 != 1 {
		t.Errorf("scenario shape: saved=%d reprocessed=%d, want 1/1", s1, r1)
	}
}

// TestRecoveredNodeStateMatchesLostNode checks the recovered replica state
// and pending history byte-for-byte.
func TestRecoveredNodeStateMatchesLostNode(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	var journal bytes.Buffer
	if err := m.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Seed: 5, Items: 4})
	for i := 0; i < 6; i++ {
		if err := m.Run(gen.Txn(tx.Tentative)); err != nil {
			t.Fatal(err)
		}
	}
	rec, _, err := RecoverMobileNode("m1", bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Local().Equal(m.Local()) {
		t.Errorf("local state: recovered %s, lost %s", rec.Local(), m.Local())
	}
	if rec.Pending() != m.Pending() {
		t.Errorf("pending: recovered %d, lost %d", rec.Pending(), m.Pending())
	}
}

// TestFailedRunLeavesNodeUnchanged: a tentative transaction that writes an
// item and then fails runs in place on the node's one working state, yet
// leaves the local state, the pending history and the journal exactly as
// they were — and the node keeps working afterwards.
func TestFailedRunLeavesNodeUnchanged(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	var journal bytes.Buffer
	if err := m.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(workload.Deposit("T1", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	local, pending, logged := m.Local(), m.Pending(), journal.String()
	bad := tx.MustNew("T2", tx.Tentative,
		tx.Update("x", expr.Const(99)),
		tx.Update("y", expr.Div(expr.Var("y"), expr.Const(0))))
	if err := m.Run(bad); err == nil {
		t.Fatal("a transaction dividing by zero ran")
	}
	if !m.Local().Equal(local) || m.Pending() != pending || journal.String() != logged {
		t.Fatalf("failed run changed the node: local %s (was %s), pending %d (was %d), journal grew %d bytes",
			m.Local(), local, m.Pending(), pending, journal.Len()-len(logged))
	}
	if err := m.Run(workload.Deposit("T3", tx.Tentative, "x", 7)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverMobileNode("m1", bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pending() != 2 || !rec.Local().Equal(m.Local()) {
		t.Errorf("recovered %d pending, local %s; want 2, %s", rec.Pending(), rec.Local(), m.Local())
	}
}

// TestAttachJournalLate attaches the journal after transactions already ran;
// the journal must still contain the full period.
func TestAttachJournalLate(t *testing.T) {
	b := NewBaseCluster(origin(), Config{})
	m := NewMobileNode("m1", b)
	if err := m.Run(workload.Deposit("T1", tx.Tentative, "x", 5)); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if err := m.AttachJournal(&journal); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(workload.Deposit("T2", tx.Tentative, "x", 7)); err != nil {
		t.Fatal(err)
	}
	rec, _, err := RecoverMobileNode("m1", bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Pending() != 2 {
		t.Errorf("recovered pending = %d, want 2", rec.Pending())
	}
	if !rec.Local().Equal(m.Local()) {
		t.Errorf("recovered local %s != %s", rec.Local(), m.Local())
	}
}
