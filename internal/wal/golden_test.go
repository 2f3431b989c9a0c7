package wal

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tiermerge/internal/expr"
	"tiermerge/internal/model"
	"tiermerge/internal/tx"
	"tiermerge/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.journal from the current LogTxn")

// checkGolden compares a journal with its committed golden file. The
// journal format is fixed: a change that rewrites what LogTxn emits for the
// same executions must show up here, not in recovery.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: LogTxn wrote %d bytes that differ from the golden %d bytes", name, len(got), len(want))
	}
}

// TestLogTxnGoldenCanned journals one execution of every canned type, both
// branches of the conditional ones, a blind write read back after the
// write, and a run under a fix.
func TestLogTxnGoldenCanned(t *testing.T) {
	origin := model.StateOf(map[model.Item]model.Value{"a": 100, "b": 40, "g": 500, "p": 7, "q": 3})
	blind := tx.MustNew("T12", tx.Tentative,
		tx.Assign("q", expr.Add(expr.Var("p"), expr.Const(1))),
		tx.Read("q"),
		tx.Update("b", expr.Add(expr.Var("b"), expr.Var("q"))),
	)
	runs := []struct {
		txn *tx.Transaction
		fix tx.Fix
	}{
		{txn: workload.Deposit("T1", tx.Tentative, "a", 5)},
		{txn: workload.Withdraw("T2", tx.Tentative, "b", 3)},
		{txn: workload.Transfer("T3", tx.Tentative, "a", "b", 9)},
		{txn: workload.GuardedTransfer("T4", tx.Tentative, "b", "a", 10)},
		{txn: workload.GuardedTransfer("T5", tx.Tentative, "p", "a", 1000)},
		{txn: workload.SetPrice("T6", tx.Tentative, "p", 77)},
		{txn: workload.Audit("T7", tx.Tentative, "a", "g", "b")},
		{txn: workload.Bonus("T8", tx.Tentative, "g", "b", 100, 8)},
		{txn: workload.Bonus("T9", tx.Tentative, "p", "b", 100, 8)},
		{txn: workload.AccrueInterest("T10", tx.Tentative, "a", 4)},
		{txn: workload.Restock("T11", tx.Tentative, "q", 20)},
		{txn: blind},
		{txn: workload.Bonus("T13", tx.Tentative, "g", "a", 100, 2), fix: tx.Fix{"g": 50, "a": 1}},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Checkout(1, 0, origin); err != nil {
		t.Fatal(err)
	}
	cur := origin.Clone()
	for _, r := range runs {
		next, eff, err := r.txn.Exec(cur, r.fix)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(r.txn, eff); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	checkGolden(t, "canned.journal", buf.Bytes())
}

// TestLogTxnGoldenGenerated journals a generated history with hot items
// and a high share of pure increments.
func TestLogTxnGoldenGenerated(t *testing.T) {
	gen := workload.NewGenerator(workload.Config{Seed: 42, Items: 12, HotItems: 3, PHot: 0.5, PCommutative: 0.7})
	origin := gen.OriginState()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Checkout(2, 5, origin); err != nil {
		t.Fatal(err)
	}
	cur := origin.Clone()
	for i := 0; i < 60; i++ {
		txn := gen.Txn(tx.Tentative)
		next, eff, err := txn.Exec(cur, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.LogTxn(txn, eff); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	checkGolden(t, "generated.journal", buf.Bytes())
	if _, err := Replay(mustReadAll(t, buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

func mustReadAll(t *testing.T, data []byte) []Record {
	t.Helper()
	recs, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}
